// Command coyote computes a COYOTE traffic-engineering configuration for a
// topology: per-destination forwarding DAGs, optimized splitting ratios,
// the worst-case (oblivious) performance ratio versus traditional ECMP,
// and optionally the OSPF lie set realizing the configuration.
//
// Usage:
//
//	coyote -list
//	coyote -topo Geant -margin 2.0 [-virtual 3] [-local-search] [-json]
//	coyote -file net.txt -margin 2.5
//	coyote -topo-file Geant.graphml -demand hotspot -margin 2
//
// With -file, the topology is read in the text format coyote-scen writes
// (node/link/edge directives); -topo-file additionally accepts Topology
// Zoo GraphML and SNDlib native files (format detected from extension or
// content). The base demand matrix defaults to the gravity model (§VI-B
// of the paper) and -demand selects any scenario-engine model; -margin x
// bounds every demand within [d/x, d·x], and -margin 0 selects full
// demand obliviousness.
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
		list        = flag.Bool("list", false, "list corpus topologies, scenario generators, and demand models")
		topoName    = flag.String("topo", "", "corpus topology name (see -list)")
		file        = flag.String("file", "", "topology file in text format (alternative to -topo)")
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
	topo, err := loadTopology(*topoName, *file, *topoFile)
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
		Topology: displayName(*topoName, *file, *topoFile),
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

func loadTopology(name, file, topoFile string) (*coyote.Topology, error) {
	set := 0
	for _, s := range []string{name, file, topoFile} {
		if s != "" {
			set++
		}
	}
	switch {
	case set > 1:
		return nil, fmt.Errorf("coyote: use exactly one of -topo, -file, -topo-file")
	case name != "":
		t, err := coyote.LoadTopology(name)
		if err != nil {
			return nil, fmt.Errorf("%w (use -list for the known topologies and generators)", err)
		}
		return t, nil
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return coyote.ReadTopology(f)
	case topoFile != "":
		return coyote.ReadTopologyFile(topoFile)
	default:
		return nil, fmt.Errorf("coyote: -topo, -file or -topo-file is required (try -topo Geant, or -list)")
	}
}

// printList answers -list: everything a -topo / -demand flag accepts,
// plus the scenario generators cmd/coyote-scen builds topologies with.
func printList() {
	fmt.Println("corpus topologies (-topo):")
	for _, name := range coyote.TopologyNames() {
		fmt.Printf("  %s\n", name)
	}
	fmt.Println("\nscenario generators (coyote-scen generate -gen):")
	for _, g := range coyote.ScenarioGenerators() {
		fmt.Printf("  %-8s %s\n", g.Name, g.Desc)
	}
	fmt.Printf("\ndemand models (-demand): %s\n", strings.Join(coyote.DemandModels(), ", "))
}

func displayName(name, file, topoFile string) string {
	switch {
	case name != "":
		return name
	case file != "":
		return file
	default:
		return topoFile
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "coyote:", err)
	os.Exit(1)
}
