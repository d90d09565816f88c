// Package strategy puts every traffic-engineering algorithm in the repo —
// and three new competitors — behind one interface, so the portfolio
// head-to-head the ROADMAP calls for (strategy × topology × demand regime ×
// failure suite) is a single loop instead of N ad-hoc entry points.
//
// A Strategy is built once per (topology, uncertainty box) and produces a
// Plan. A Plan answers Route(dm) for any demand matrix; static plans (ECMP,
// COYOTE oblivious, weight search) return the same routing for every matrix,
// while per-matrix plans (the OPT oracle) re-solve. Plans that additionally
// implement Adapter re-solve only the *rates* online while keeping their
// path sets fixed — the semi-oblivious model of Kulfi — and are driven
// through Apply, which prefers Adapt when present.
//
// Every strategy is seed-deterministic and bit-identical at any Workers
// count (see the parity suite); build latency and online adaptation counts
// are exported as obs metrics, never baked into results.
package strategy

import (
	"fmt"
	"sort"
	"time"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/mcf"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/pdrouting"
)

// Cost is deterministic plan metadata: what the plan costs a network to
// hold and to run, independent of wall clock (timings go to obs metrics so
// golden results stay byte-stable).
type Cost struct {
	// DAGEdges is the total member-edge count across all destination DAGs —
	// the forwarding state a router fleet must install.
	DAGEdges int
	// Adaptive reports whether the plan re-solves per observed matrix
	// (either a per-matrix Route or an online Adapt).
	Adaptive bool
	// Scenarios counts the adversarial demand scenarios accumulated while
	// building (0 for closed-form strategies).
	Scenarios int
}

// Plan is a built routing policy for one (topology, box).
type Plan interface {
	// Route returns the routing the plan uses for dm. Static plans ignore
	// dm; per-matrix plans (the OPT oracle) solve for it.
	Route(dm *demand.Matrix) (*pdrouting.Routing, error)
	// Cost reports deterministic plan metadata.
	Cost() Cost
}

// Adapter is the optional online-rate interface: Adapt keeps the plan's
// path sets fixed and re-solves only the splitting rates for dm. Plans
// implementing Adapter guarantee Adapt is never worse (in max link
// utilization on dm) than their static Route.
type Adapter interface {
	Adapt(dm *demand.Matrix) (*pdrouting.Routing, error)
}

// Strategy builds Plans.
type Strategy interface {
	Name() string
	Build(g *graph.Graph, box *demand.Box) (Plan, error)
}

// Config tunes strategy construction: the COYOTE solve's one parameter set.
// The zero value uses each underlying algorithm's defaults; strategies that
// run no adversarial loop read only the fields they need (Seed, Workers,
// the iteration counts).
type Config = oblivious.Params

// Per-strategy build latency and online adaptation counters, exported on
// /metrics. Purely observational: results never depend on them.
var (
	buildSeconds = obs.Default.NewHistogramVec(
		"coyote_strategy_build_seconds",
		"Wall time of Strategy.Build per strategy.",
		obs.ExpBuckets(0.001, 2, 18), "strategy")
	adaptTotal = obs.Default.NewCounterVec(
		"coyote_strategy_adapt_total",
		"Online rate re-solves (Plan.Adapt calls) per strategy.",
		"strategy")
)

// builders is the registry: name → constructor. Names double as the
// `-strategy` flag values and the portfolio table's column headers.
var builders = map[string]func(Config) Strategy{
	"ecmp":           func(c Config) Strategy { return &ecmpStrategy{cfg: c} },
	"localsearch":    func(c Config) Strategy { return &localsearchStrategy{cfg: c} },
	"gpopt":          func(c Config) Strategy { return &gpoptStrategy{cfg: c} },
	"coyote":         func(c Config) Strategy { return &coyoteStrategy{cfg: c} },
	"coyote-fptas":   func(c Config) Strategy { return &coyoteStrategy{cfg: c, forceFPTAS: true} },
	"opt":            func(c Config) Strategy { return &optStrategy{cfg: c} },
	"semi-oblivious": func(c Config) Strategy { return &semiObliviousStrategy{cfg: c} },
	"cspf":           func(c Config) Strategy { return &cspfStrategy{cfg: c} },
	"omw":            func(c Config) Strategy { return &omwStrategy{cfg: c} },
}

// Names lists every registered strategy, sorted.
func Names() []string {
	out := make([]string, 0, len(builders))
	for name := range builders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// New constructs a strategy by registry name.
func New(name string, cfg Config) (Strategy, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("strategy: unknown strategy %q (have %v)", name, Names())
	}
	if err := mcf.CheckEps(cfg.Eps); err != nil {
		return nil, fmt.Errorf("strategy: Config.Eps: %w", err)
	}
	return b(cfg), nil
}

// Build checks the box against the topology (demand.Box.Check), runs
// s.Build and records its latency under the strategy's name.
// Callers that loop over a portfolio should prefer this over calling
// s.Build directly so the build histogram stays populated.
func Build(s Strategy, g *graph.Graph, box *demand.Box) (Plan, error) {
	if err := box.Check(g.NumNodes()); err != nil {
		return nil, fmt.Errorf("strategy: %w", err)
	}
	t0 := time.Now()
	p, err := s.Build(g, box)
	buildSeconds.With(s.Name()).ObserveSince(t0)
	return p, err
}

// Apply routes dm through the plan, preferring the online Adapt path when
// the plan implements it (and counting the adaptation).
func Apply(name string, p Plan, dm *demand.Matrix) (*pdrouting.Routing, error) {
	if a, ok := p.(Adapter); ok {
		adaptTotal.With(name).Inc()
		return a.Adapt(dm)
	}
	return p.Route(dm)
}

// dagEdges sums member edges across a routing's destination DAGs.
func dagEdges(r *pdrouting.Routing) int {
	n := 0
	for _, d := range r.DAGs {
		n += d.NumEdges()
	}
	return n
}

// staticPlan wraps a fixed routing.
type staticPlan struct {
	r    *pdrouting.Routing
	cost Cost
}

func (p *staticPlan) Route(*demand.Matrix) (*pdrouting.Routing, error) { return p.r, nil }
func (p *staticPlan) Cost() Cost                                       { return p.cost }
