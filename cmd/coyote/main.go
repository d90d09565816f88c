// Command coyote computes a COYOTE traffic-engineering configuration for a
// topology: per-destination forwarding DAGs, optimized splitting ratios,
// the worst-case (oblivious) performance ratio versus traditional ECMP,
// and optionally the OSPF lie set realizing the configuration.
//
// Usage:
//
//	coyote -list
//	coyote -topo Geant -margin 2.0 [-virtual 3] [-local-search] [-json]
//	coyote -topo-file Geant.graphml -demand hotspot -margin 2
//
// -topo-file reads the text format coyote-scen writes (node/link/edge
// directives), Topology Zoo GraphML and SNDlib native files (format
// detected from extension or content). The base demand matrix defaults to
// the gravity model (§VI-B of the paper) and -demand selects any
// scenario-engine model; -margin x bounds every demand within [d/x, d·x],
// and -margin 0 selects full demand obliviousness.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	coyote "github.com/coyote-te/coyote"
)

func main() {
	var (
		list        = flag.Bool("list", false, "list corpus topologies and demand models")
		topoName    = flag.String("topo", "", "corpus topology name (see -list)")
		topoFile    = flag.String("topo-file", "", "topology file in any supported format: text, GraphML, SNDlib (alternative to -topo)")
		model       = flag.String("demand", "gravity", "base demand model: gravity, bimodal, hotspot, flash, uniform")
		margin      = flag.Float64("margin", 2, "demand uncertainty margin (0 = fully oblivious)")
		virtual     = flag.Int("virtual", 0, "synthesize lies with this many extra virtual next-hops per interface (0 = skip)")
		localSearch = flag.Bool("local-search", false, "optimize OSPF weights with local search first")
		iters       = flag.Int("iters", 500, "optimizer gradient steps")
		advIters    = flag.Int("adv-iters", 5, "adversarial refinement rounds")
		seed        = flag.Int64("seed", 1, "random seed")
		workers     = flag.Int("workers", 0, "worker-pool size for the evaluation engine (0 = one per CPU; results are identical for any value)")
		asJSON      = flag.Bool("json", false, "emit machine-readable JSON")
		fibOut      = flag.String("fib", "", "write the splitting configuration (FIB fractions) as JSON to this file")
		msgOut      = flag.String("messages", "", "write the fake-node LSAs as JSON to this file (requires -virtual)")
	)
	flag.Parse()

	if *list {
		printList()
		return
	}
	if err := checkOutputs(*virtual, *msgOut); err != nil {
		fmt.Fprintln(os.Stderr, "coyote:", err)
		flag.Usage()
		os.Exit(2)
	}
	topo, err := loadTopology(*topoName, *topoFile)
	if err != nil {
		fatal(err)
	}
	var bounds *coyote.Bounds
	if *margin <= 0 {
		// Fully oblivious: no base demand model is consulted, so report
		// that rather than the (ignored) -demand value.
		*model = "(oblivious)"
		bounds = coyote.ObliviousBounds(topo, 1)
	} else {
		base, err := coyote.BuildDemands(topo, *model, 1, *seed)
		if err != nil {
			fatal(err)
		}
		bounds = coyote.MarginBounds(base, *margin)
	}
	cfg, err := coyote.New(topo, bounds, coyote.Options{
		OptimizerIters:     *iters,
		AdversarialIters:   *advIters,
		LocalSearchWeights: *localSearch,
		Seed:               *seed,
		Workers:            *workers,
	}).Compute()
	if err != nil {
		fatal(err)
	}

	type liesOut struct {
		VirtualNextHops  int `json:"virtual_next_hops"`
		FakeNodes        int `json:"fake_nodes"`
		VirtualLinks     int `json:"virtual_links"`
		LiedDestinations int `json:"lied_destinations"`
	}
	out := struct {
		Topology string   `json:"topology"`
		Demand   string   `json:"demand"`
		Nodes    int      `json:"nodes"`
		Links    int      `json:"links"`
		Margin   float64  `json:"margin"`
		Perf     float64  `json:"coyote_perf"`
		ECMPPerf float64  `json:"ecmp_perf"`
		Gain     float64  `json:"gain"`
		Lies     *liesOut `json:"lies,omitempty"`
	}{
		Topology: *topoName + *topoFile, // loadTopology accepted exactly one
		Demand:   *model,
		Nodes:    topo.NumNodes(),
		Links:    topo.NumLinks() / 2,
		Margin:   *margin,
		Perf:     cfg.Perf,
		ECMPPerf: cfg.ECMPPerf,
		Gain:     cfg.ECMPPerf / cfg.Perf,
	}
	if *fibOut != "" {
		f, err := os.Create(*fibOut)
		if err != nil {
			fatal(err)
		}
		if err := cfg.Routing.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *virtual > 0 {
		lies, err := cfg.Lies(*virtual)
		if err != nil {
			fatal(err)
		}
		out.Lies = &liesOut{
			VirtualNextHops:  *virtual,
			FakeNodes:        lies.FakeNodes,
			VirtualLinks:     lies.VirtualLinks,
			LiedDestinations: lies.LiedDestinations,
		}
		if *msgOut != "" {
			f, err := os.Create(*msgOut)
			if err != nil {
				fatal(err)
			}
			if err := lies.WriteMessages(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("topology        %s (%d nodes, %d links)\n", out.Topology, out.Nodes, out.Links)
	fmt.Printf("demand model    %s\n", out.Demand)
	fmt.Printf("uncertainty     margin %.1f\n", out.Margin)
	fmt.Printf("COYOTE PERF     %.3f\n", out.Perf)
	fmt.Printf("ECMP PERF       %.3f\n", out.ECMPPerf)
	fmt.Printf("improvement     %.0f%%\n", 100*(out.Gain-1))
	if out.Lies != nil {
		fmt.Printf("lies            %d fake nodes, %d virtual links, %d destinations (≤%d extra next-hops/interface)\n",
			out.Lies.FakeNodes, out.Lies.VirtualLinks, out.Lies.LiedDestinations, out.Lies.VirtualNextHops)
	}
}

// checkOutputs rejects output flags that would silently write nothing.
func checkOutputs(virtual int, msgOut string) error {
	if msgOut != "" && virtual <= 0 {
		return fmt.Errorf("-messages requires -virtual N (N ≥ 1): there are no lies to write otherwise")
	}
	return nil
}

func loadTopology(name, topoFile string) (*coyote.Topology, error) {
	switch {
	case name != "" && topoFile != "":
		return nil, fmt.Errorf("coyote: use exactly one of -topo, -topo-file")
	case name != "":
		t, err := coyote.LoadTopology(name)
		if err != nil {
			return nil, fmt.Errorf("%w (use -list for the known topologies)", err)
		}
		return t, nil
	case topoFile != "":
		return coyote.ReadTopologyFile(topoFile)
	default:
		return nil, fmt.Errorf("coyote: -topo or -topo-file is required (try -topo Geant, or -list)")
	}
}

// printList answers -list: everything the -topo and -demand flags accept.
func printList() {
	fmt.Println("corpus topologies (-topo):")
	for _, name := range coyote.TopologyNames() {
		fmt.Printf("  %s\n", name)
	}
	fmt.Printf("\ndemand models (-demand): %s\n", strings.Join(coyote.DemandModels(), ", "))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "coyote:", err)
	os.Exit(1)
}
