// Command coyote-scen drives the scenario engine: it generates parametric
// topologies (Waxman, Barabási–Albert, fat-tree, grid, ring), converts
// real topology files (Topology Zoo GraphML, SNDlib native) and the
// built-in corpus to the repo's text format, and sweeps generated
// scenarios through the evaluation engine.
//
// Usage:
//
//	coyote-scen list
//	coyote-scen generate -gen waxman -n 50 -seed 7 [-dot]
//	coyote-scen convert -in Geant.graphml [-dot]
//	coyote-scen convert -name Geant [-dot]          # a built-in corpus topology
//	coyote-scen sweep -gen fattree -k 4 -demand hotspot -margins 1,2,3
//	coyote-scen sweep -in abilene.snd -demand gravity -quick
//	coyote-scen sweep -gen ring -n 8 -quick -json   # machine-readable table
//
// Every generator is deterministic: the same flags always produce the
// byte-identical topology.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	coyote "github.com/coyote-te/coyote"
	"github.com/coyote-te/coyote/internal/exp"
	"github.com/coyote-te/coyote/internal/scen"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "list":
		err = runList()
	case "generate":
		err = runGenerate(args)
	case "convert":
		err = runConvert(args)
	case "sweep":
		err = runSweep(args)
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "coyote-scen: unknown subcommand %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "coyote-scen:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `coyote-scen — scenario engine CLI

Subcommands:
  list       what -gen, -demand and convert -name accept
  generate   build a parametric topology and print it (text or -dot)
  convert    read GraphML / SNDlib / text (-in file or stdin), or a corpus
             topology (-name), and print text
  sweep      margin-sweep a generated or loaded topology through the evaluator

Run 'coyote-scen <subcommand> -h' for flags.
`)
}

// genFlags registers the generator parameter flags shared by generate and
// sweep and returns the name/params accessors.
func genFlags(fs *flag.FlagSet) (gen *string, params func() coyote.GenParams) {
	gen = fs.String("gen", "", "generator name (see 'coyote-scen list')")
	n := fs.Int("n", 20, "node count (waxman, ba, ring)")
	seed := fs.Int64("seed", 0, "generator seed; same seed, same topology")
	alpha := fs.Float64("alpha", 0.4, "Waxman alpha")
	beta := fs.Float64("beta", 0.2, "Waxman beta")
	m := fs.Int("m", 2, "links per new node (ba) / chord count (ring)")
	k := fs.Int("k", 4, "fat-tree arity (even)")
	rows := fs.Int("rows", 4, "grid rows")
	cols := fs.Int("cols", 5, "grid cols")
	wrap := fs.Bool("wrap", false, "wrap the grid into a torus")
	params = func() coyote.GenParams {
		return coyote.GenParams{
			N: *n, Seed: *seed, Alpha: *alpha, Beta: *beta,
			M: *m, K: *k, Rows: *rows, Cols: *cols, Wrap: *wrap,
		}
	}
	return gen, params
}

// runList answers list: everything the -gen, -demand and -name flags accept.
func runList() error {
	fmt.Println("topology generators (-gen ...):")
	for _, g := range coyote.ScenarioGenerators() {
		fmt.Printf("  %-8s %s\n", g.Name, g.Desc)
	}
	fmt.Println("\ndemand models (-demand ...):")
	fmt.Printf("  %s\n", strings.Join(coyote.DemandModels(), ", "))
	fmt.Println("\ncorpus topologies (convert -name ...):")
	for _, name := range coyote.TopologyNames() {
		t, err := coyote.LoadTopology(name)
		if err != nil {
			return err
		}
		fmt.Printf("  %-14s %3d nodes  %3d links\n", name, t.NumNodes(), t.NumLinks()/2)
	}
	return nil
}

func runGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	gen, params := genFlags(fs)
	dot := fs.Bool("dot", false, "emit Graphviz DOT instead of text format")
	fs.Parse(args)
	if *gen == "" {
		return fmt.Errorf("generate: -gen is required (try -gen waxman; see 'coyote-scen list')")
	}
	t, err := coyote.GenerateTopology(*gen, params())
	if err != nil {
		return err
	}
	if *dot {
		return t.WriteDOT(os.Stdout)
	}
	return t.WriteText(os.Stdout)
}

func runConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "input file (GraphML, SNDlib native, or text; default stdin)")
	name := fs.String("name", "", "dump a built-in corpus topology instead (see 'coyote-scen list')")
	dot := fs.Bool("dot", false, "emit Graphviz DOT instead of text format")
	fs.Parse(args)
	var (
		t   *coyote.Topology
		err error
	)
	switch {
	case *name != "" && *in != "":
		return fmt.Errorf("convert: use either -name or -in, not both")
	case *name != "":
		t, err = coyote.LoadTopology(*name)
	case *in != "":
		t, err = coyote.ReadTopologyFile(*in)
	default:
		t, err = coyote.ReadTopologyAuto(os.Stdin)
	}
	if err != nil {
		return err
	}
	if err := t.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "coyote-scen: warning:", err)
	}
	if *dot {
		return t.WriteDOT(os.Stdout)
	}
	return t.WriteText(os.Stdout)
}

func runSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	gen, params := genFlags(fs)
	in := fs.String("in", "", "sweep a topology file instead of a generated one")
	model := fs.String("demand", "gravity", "demand model (see 'coyote-scen list')")
	margins := fs.String("margins", "1,1.5,2,2.5,3", "comma-separated uncertainty margins")
	quick := fs.Bool("quick", false, "use the reduced (smoke-test) configuration")
	workers := fs.Int("workers", 0, "worker-pool size (0 = one per CPU; results identical for any value)")
	jsonOut := fs.Bool("json", false, "emit the sweep table as JSON ({title, columns, rows}) instead of text")
	fs.Parse(args)

	cfg := exp.Default()
	if *quick {
		cfg = exp.Quick()
	}
	cfg.Workers = *workers
	if ms, err := parseMargins(*margins); err != nil {
		return err
	} else if len(ms) > 0 {
		cfg.Margins = ms
	}
	p := params()
	cfg.Seed = p.Seed

	var (
		tab *exp.Table
		err error
	)
	switch {
	case *in != "" && *gen != "":
		return fmt.Errorf("sweep: use either -gen or -in, not both")
	case *in != "":
		g, rerr := scen.ReadFile(*in)
		if rerr != nil {
			return rerr
		}
		tab, err = exp.SweepGraph(context.Background(), fmt.Sprintf("Scenario sweep — %s", *in), g, *model, cfg)
	case *gen != "":
		tab, err = exp.ScenSweep(context.Background(), *gen, p, *model, cfg)
	default:
		return fmt.Errorf("sweep: -gen or -in is required")
	}
	if err != nil {
		return err
	}
	if *jsonOut {
		return tab.WriteJSON(os.Stdout)
	}
	_, err = tab.WriteTo(os.Stdout)
	return err
}

func parseMargins(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("sweep: bad margin %q (want numbers ≥ 1)", part)
		}
		out = append(out, v)
	}
	return out, nil
}
