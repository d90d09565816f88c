// Package scen is the scenario engine: it manufactures evaluation
// scenarios — topologies, demand workloads, and failure patterns — beyond
// the fixed synthetic corpus of internal/topo.
//
// Three ingredient families compose a scenario:
//
//   - Parametric topology generators (Generate): Waxman and
//     Barabási–Albert random graphs, fat-tree/Clos datacenter fabrics,
//     and grid/ring WANs. Every generator consumes an explicit seed and
//     is deterministic: the same Params always yield the byte-identical
//     topology (see TestGeneratorsDeterministic).
//   - Loaders for real topology formats (ReadGraphML, ReadSNDlib):
//     Internet Topology Zoo GraphML and SNDlib native files parsed from
//     an io.Reader, with link capacities inferred from the file's
//     speed/module annotations and OSPF weights defaulted to the
//     inverse-capacity rule the paper cites [16].
//   - Demand workload suites (workload.go) beyond gravity/bimodal —
//     hotspot, flash-crowd, and time-of-day sequences sampled inside a
//     demand.Box — and failure suites (failures.go): single-link and
//     shared-risk-link-group sets feeding internal/failover.
//
// The coyote root package reaches the generators, demand models and
// readers (coyote.GenerateTopology, coyote.BuildDemands,
// coyote.ReadTopologyFile, ...), and cmd/coyote-scen drives them from the
// command line.
package scen

import (
	"fmt"
	"sort"

	"github.com/coyote-te/coyote/internal/graph"
)

// Params parameterizes a topology generator. Zero fields take
// generator-specific defaults (see each generator's description); Seed is
// always honored as-is, so the zero Params is itself a valid, reproducible
// input.
type Params struct {
	// N is the target node count (waxman, ba, ring). Default 20.
	N int
	// Seed drives every random choice the generator makes.
	Seed int64

	// Alpha and Beta are the Waxman edge-probability parameters
	// P(u,v) = Alpha·exp(-d(u,v)/(Beta·L)). Defaults 0.4 and 0.2.
	Alpha, Beta float64

	// M is the number of links each new node attaches with
	// (Barabási–Albert), or the number of random chord links added to a
	// ring. Default 2.
	M int

	// K is the fat-tree arity (port count per switch; must be even).
	// Default 4, giving the classic 20-switch fabric.
	K int

	// Rows and Cols size the grid generator. Defaults 4×5.
	Rows, Cols int
	// Wrap turns the grid into a torus (wraparound rows and columns).
	Wrap bool

	// CapClasses are the capacity values links sample from (uniformly).
	// Default {10, 2.5, 1}, the corpus's 10G/2.5G/1G mix. Fat-tree
	// fabrics ignore this and use uniform capacities per tier.
	CapClasses []float64
}

func (p Params) withDefaults() Params {
	if p.N <= 0 {
		p.N = 20
	}
	if p.Alpha == 0 {
		p.Alpha = 0.4
	}
	if p.Beta == 0 {
		p.Beta = 0.2
	}
	if p.M <= 0 {
		p.M = 2
	}
	if p.K <= 0 {
		p.K = 4
	}
	if p.Rows <= 0 {
		p.Rows = 4
	}
	if p.Cols <= 0 {
		p.Cols = 5
	}
	if len(p.CapClasses) == 0 {
		p.CapClasses = []float64{10, 2.5, 1}
	}
	return p
}

// Generator is one registered topology generator.
type Generator struct {
	Name string
	// Desc is a one-line description for -list output.
	Desc  string
	build func(p Params) (*graph.Graph, error)
}

var generators = map[string]Generator{
	"waxman": {
		Name: "waxman",
		Desc: "Waxman random WAN: geometric nodes, P(u,v)=α·exp(-d/βL) links (-n, -alpha, -beta)",
	},
	"ba": {
		Name: "ba",
		Desc: "Barabási–Albert preferential attachment: -m links per new node (-n, -m)",
	},
	"fattree": {
		Name: "fattree",
		Desc: "k-ary fat-tree/Clos fabric: k pods of edge+aggregation plus (k/2)² cores (-k, even)",
	},
	"grid": {
		Name: "grid",
		Desc: "rows×cols grid WAN, optionally wrapped into a torus (-rows, -cols, -wrap)",
	},
	"ring": {
		Name: "ring",
		Desc: "n-node ring plus m random chords (-n, -m)",
	},
}

func init() {
	// Wired here rather than in the literal so the table stays readable.
	reg := func(name string, f func(Params) (*graph.Graph, error)) {
		g := generators[name]
		g.build = f
		generators[name] = g
	}
	reg("waxman", genWaxman)
	reg("ba", genBarabasiAlbert)
	reg("fattree", genFatTree)
	reg("grid", genGrid)
	reg("ring", genRing)
}

// Names returns the registered generator names, sorted.
func Names() []string {
	out := make([]string, 0, len(generators))
	for name := range generators {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Describe returns the registered generators, sorted by name.
func Describe() []Generator {
	out := make([]Generator, 0, len(generators))
	for _, name := range Names() {
		out = append(out, generators[name])
	}
	return out
}

// Generate builds a topology with the named generator. The result is
// validated (strongly connected, positive capacities/weights) before being
// returned, and is a pure function of (name, Params).
func Generate(name string, p Params) (*graph.Graph, error) {
	gen, ok := generators[name]
	if !ok {
		return nil, fmt.Errorf("scen: unknown generator %q (have %v)", name, Names())
	}
	g, err := gen.build(p.withDefaults())
	if err != nil {
		return nil, fmt.Errorf("scen: %s: %w", name, err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("scen: %s produced invalid graph: %w", name, err)
	}
	if !g.Connected() {
		return nil, fmt.Errorf("scen: %s produced a disconnected graph", name)
	}
	return g, nil
}
