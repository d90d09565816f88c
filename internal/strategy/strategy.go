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
	"errors"
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

// Plan is a built routing policy for one (topology, box).
type Plan interface {
	// Route returns the routing the plan uses for dm. Static plans ignore
	// dm; per-matrix plans (the OPT oracle) solve for it.
	Route(dm *demand.Matrix) (*pdrouting.Routing, error)
}

// Adapter is the optional online-rate interface: Adapt keeps the plan's
// path sets fixed and re-solves only the splitting rates for dm. Plans
// implementing Adapter guarantee Adapt is never worse (in max link
// utilization on dm) than their static Route.
type Adapter interface {
	Adapt(dm *demand.Matrix) (*pdrouting.Routing, error)
}

// Strategy is one registered algorithm bound to its Config: New makes it,
// Build runs it.
type Strategy struct {
	name  string
	cfg   Config
	build buildFunc
}

// buildFunc is what a registry entry supplies: inputs already through Check.
type buildFunc func(cfg Config, g *graph.Graph, box *demand.Box) (Plan, error)

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

// builders is the registry: name → build function. Names double as the
// `-strategy` flag values and the portfolio table's column headers.
var builders = map[string]buildFunc{
	"ecmp":           buildECMP,
	"localsearch":    buildLocalSearch,
	"gpopt":          buildGPOpt,
	"coyote":         buildCoyote,
	"coyote-fptas":   buildCoyoteFPTAS,
	"opt":            buildOPT,
	"semi-oblivious": buildSemiOblivious,
	"cspf":           buildCSPF,
	"omw":            buildOMW,
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

// New constructs a strategy by registry name, rejecting an unknown name or
// a Config no build could use.
func New(name string, cfg Config) (Strategy, error) {
	b, ok := builders[name]
	if !ok {
		return Strategy{}, fmt.Errorf("strategy: unknown strategy %q (have %v)", name, Names())
	}
	if err := mcf.CheckEps(cfg.Eps); err != nil {
		return Strategy{}, err
	}
	return Strategy{name: name, cfg: cfg, build: b}, nil
}

// Check is the one input gate of a solve: a structurally valid, strongly
// connected topology, a box the adversary can normalize (demand.Box.Check)
// and an FPTAS accuracy in range. Build runs it for every strategy; a
// session, whose DAGs come from its own SPF state, calls it directly. The
// errors surface unchanged from coyote.Compute and coyote.NewSession, so
// they name what is wrong (graph:, demand:, mcf: eps) and not this package.
func Check(g *graph.Graph, box *demand.Box, eps float64) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if !g.Connected() {
		return errors.New("graph: topology is not strongly connected")
	}
	if err := box.Check(g.NumNodes()); err != nil {
		return err
	}
	return mcf.CheckEps(eps)
}

// Build passes the inputs through Check, builds the strategy's plan and
// records the build latency under the strategy's name.
func Build(s Strategy, g *graph.Graph, box *demand.Box) (Plan, error) {
	if err := Check(g, box, s.cfg.Eps); err != nil {
		return nil, err
	}
	t0 := time.Now()
	p, err := s.build(s.cfg, g, box)
	buildSeconds.With(s.name).ObserveSince(t0)
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

// staticPlan wraps a fixed routing.
type staticPlan struct{ r *pdrouting.Routing }

func (p *staticPlan) Route(*demand.Matrix) (*pdrouting.Routing, error) { return p.r, nil }
