// Package coyote is a from-scratch Go implementation of COYOTE
// ("Lying Your Way to Better Traffic Engineering", Chiesa, Rétvári and
// Schapira, CoNEXT 2016): readily deployable traffic engineering for
// legacy OSPF/ECMP networks that is robust to demand uncertainty.
//
// COYOTE computes, for every destination, a forwarding DAG (an augmented
// shortest-path DAG) and traffic-splitting ratios optimized against every
// demand matrix within operator-specified uncertainty bounds — then
// realizes the configuration on unmodified routers by injecting "lies"
// (fake nodes and links) into the OSPF link-state database, à la Fibbing.
//
// Typical use:
//
//	t := coyote.NewTopology()
//	a, b := t.AddNode("a"), t.AddNode("b")
//	t.AddLink(a, b, 10, 1)
//	...
//	bounds := coyote.MarginBounds(coyote.GravityDemands(t, 1), 2.0) // 2× uncertainty
//	cfg, err := coyote.New(t, bounds).Compute()
//	// cfg.Routing: per-destination DAGs + splitting ratios
//	// cfg.Perf: worst-case normalized utilization (oblivious performance)
//	lies, err := cfg.Lies(3) // realize with ≤3 virtual next-hops per interface
//
// The heavy lifting lives in internal packages: the GP-style splitting
// optimizer (internal/gpopt), the worst-case-demand adversary and
// adversarial loop (internal/oblivious), exact LP and FPTAS
// multicommodity solvers (internal/lp, internal/mcf), the OSPF/Fibbing
// machinery (internal/ospf, internal/fibbing, internal/wcmp), and the
// experiment harness reproducing the paper's evaluation (internal/exp).
package coyote

import (
	"context"
	"errors"
	"io"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/fibbing"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/localsearch"
	"github.com/coyote-te/coyote/internal/mcf"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/strategy"
)

// NodeID identifies a router in a Topology.
type NodeID = graph.NodeID

// EdgeID identifies a directed link in a Topology.
type EdgeID = graph.EdgeID

// Topology is a capacitated, weighted network. Create one with
// NewTopology (or load a corpus topology with LoadTopology), add nodes
// and links, then hand it to New.
type Topology struct {
	g *graph.Graph
}

// NewTopology returns an empty topology.
func NewTopology() *Topology { return &Topology{g: graph.New()} }

// AddNode adds (or finds) a router by name.
func (t *Topology) AddNode(name string) NodeID { return t.g.AddNode(name) }

// AddLink adds a bidirectional link with the given capacity and OSPF
// weight (both must be positive) and returns the forward edge ID.
func (t *Topology) AddLink(a, b NodeID, capacity, weight float64) EdgeID {
	return t.g.AddLink(a, b, capacity, weight)
}

// NumNodes reports the router count.
func (t *Topology) NumNodes() int { return t.g.NumNodes() }

// NumLinks reports the directed-edge count.
func (t *Topology) NumLinks() int { return t.g.NumEdges() }

// NodeName returns a router's name.
func (t *Topology) NodeName(id NodeID) string { return t.g.Name(id) }

// Node finds a router by name.
func (t *Topology) Node(name string) (NodeID, bool) { return t.g.NodeByName(name) }

// Link finds the directed edge from a to b, if one exists — the handle
// Session.Fail and Session.Recover take (either direction of a
// bidirectional link identifies it).
func (t *Topology) Link(a, b NodeID) (EdgeID, bool) { return t.g.FindEdge(a, b) }

// Validate checks structural invariants (positive capacities and weights,
// consistent reverse links) and strong connectivity.
func (t *Topology) Validate() error {
	if err := t.g.Validate(); err != nil {
		return err
	}
	if !t.g.Connected() {
		return errors.New("coyote: topology is not strongly connected")
	}
	return nil
}

// DemandMatrix is a point estimate of the traffic demands: entry (s, t) is
// the rate from s to t.
type DemandMatrix = demand.Matrix

// Bounds is the operator's uncertainty set: per-pair demand intervals
// (§III of the paper).
type Bounds = demand.Box

// GravityDemands builds the gravity base model over a topology: demand
// between two routers proportional to the product of their total outgoing
// capacities, normalized so the peak entry equals peak.
func GravityDemands(t *Topology, peak float64) *DemandMatrix {
	return demand.Gravity(t.g, peak)
}

// MarginBounds builds the uncertainty set around a base matrix: each
// demand may range within [base/margin, base·margin].
func MarginBounds(base *DemandMatrix, margin float64) *Bounds {
	return demand.MarginBox(base, margin)
}

// ObliviousBounds is the "assume nothing" uncertainty set: every pair may
// send between 0 and cap. COYOTE's performance ratio is invariant to
// demand rescaling, so the cap only anchors the numeric scale.
func ObliviousBounds(t *Topology, cap float64) *Bounds {
	return demand.ObliviousBox(t.g.NumNodes(), cap)
}

// Options tunes Compute. The zero value uses sensible defaults.
type Options struct {
	// OptimizerIters is the number of gradient steps per inner
	// optimization (default 400).
	OptimizerIters int
	// AdversarialIters is the number of worst-case-demand refinement
	// rounds (default 6).
	AdversarialIters int
	// Samples is the number of random corner adversaries per evaluation
	// (default 8).
	Samples int
	// Eps is the FPTAS accuracy for normalization on larger networks: 0
	// for the default 0.1, otherwise inside (0, 0.5). Compute and
	// NewSession reject anything else with an *EpsError.
	Eps float64
	// LocalSearchWeights, when true, first optimizes OSPF link weights
	// with the Fortz–Thorup-style local search (§V-B) instead of using
	// the topology's configured weights.
	LocalSearchWeights bool
	// Seed makes runs reproducible.
	Seed int64
	// Workers is the one worker-pool size of a solve: the evaluator is built
	// with it and the adversarial loop — flow propagation, corner-adversary
	// sampling, optimizer passes (DESIGN.md §4) — takes it from there. Zero
	// or negative means one worker per available CPU. For a fixed Seed the
	// computed configuration is bit-identical for every Workers value.
	Workers int
	// PrecomputeFailover (sessions only, ignored by Compute) precomputes
	// a configuration for every single-link failure at session start, so
	// Session.Fail swaps it in and merely refines instead of
	// re-optimizing the survivor from scratch.
	PrecomputeFailover bool
}

// params is the one conversion from the public knobs to the solve's
// parameter set.
func (o Options) params() oblivious.Params {
	return oblivious.Params{
		OptIters: o.OptimizerIters,
		AdvIters: o.AdversarialIters,
		Samples:  o.Samples,
		Eps:      o.Eps,
		Seed:     o.Seed,
		Workers:  o.Workers,
	}
}

// BoundsError is the error Compute, NewSession and Session.UpdateBounds
// return for bounds no solve can use: nil, of the wrong dimension for the
// topology, with a non-finite, negative or crossed entry, or all zero
// (test with errors.As).
type BoundsError = demand.BoxError

// EpsError is the error Compute and NewSession return for an Options.Eps
// outside the range the FPTAS supports (test with errors.As).
type EpsError = mcf.EpsError

// Engine computes COYOTE configurations for one topology and uncertainty
// set.
type Engine struct {
	topo   *Topology
	bounds *Bounds
	opts   Options
}

// New creates an Engine. Compute may be called repeatedly.
func New(t *Topology, bounds *Bounds, opts ...Options) *Engine {
	e := &Engine{topo: t, bounds: bounds}
	if len(opts) > 0 {
		e.opts = opts[0]
	}
	return e
}

// Config is a computed COYOTE configuration.
type Config struct {
	// Routing holds the per-destination DAGs and splitting ratios.
	Routing *pdrouting.Routing
	// Perf is the worst-case normalized link utilization (the oblivious
	// performance ratio estimate) of Routing over the uncertainty set.
	Perf float64
	// ECMPPerf is the same metric for traditional ECMP under the same
	// weights, for comparison.
	ECMPPerf float64
	// Weights are the OSPF weights the DAGs derive from (either the
	// topology's own or the local-search result).
	Weights []float64

	topo *Topology
}

// Compute runs the full COYOTE pipeline (Fig. 5 of the paper): DAG
// construction, in-DAG splitting optimization, and evaluation — the
// portfolio's "coyote" strategy, behind the same input gate.
func (e *Engine) Compute() (*Config, error) {
	g := e.topo.g
	if e.opts.LocalSearchWeights {
		// The weight search reads the topology and bounds before Build's
		// gate would see them, so this path passes the gate twice — O(n²)
		// next to a weight search.
		if err := strategy.Check(g, e.bounds, e.opts.Eps); err != nil {
			return nil, err
		}
		tuned, err := localsearch.Reweight(g, e.bounds, max(e.opts.AdversarialIters, 3), e.opts.Seed)
		if err != nil {
			return nil, err
		}
		g = tuned
	}
	s, err := strategy.New("coyote", e.opts.params())
	if err != nil {
		return nil, err
	}
	plan, err := strategy.Build(s, g, e.bounds)
	if err != nil {
		return nil, err
	}
	return newConfig(plan.(*strategy.Solved)), nil
}

// newConfig is the public view of a solved configuration.
func newConfig(p *strategy.Solved) *Config {
	return &Config{
		Routing: p.Routing,
		Perf:    p.Perf.Ratio,
		// The no-worse-than-ECMP guarantee already evaluated ECMP with the
		// same adversary; reusing that value keeps Perf ≤ ECMPPerf exact
		// even when the ECMP fallback was taken.
		ECMPPerf: p.ECMPPerf,
		Weights:  p.Ev.G.Weights(),
		topo:     &Topology{g: p.Ev.G},
	}
}

// Lies realizes the configuration on legacy OSPF/ECMP routers:
// splitting ratios are quantized to at most extraPerInterface virtual
// next-hops per interface (per [18]) and translated into fake-node LSAs
// (per Fibbing [8,9]); the synthesized LSDB is verified to reproduce the
// quantized forwarding exactly before being returned.
func (c *Config) Lies(extraPerInterface int) (*LieSet, error) {
	q, syn, err := fibbing.Realize(context.Background(), c.topo.g, c.Routing, extraPerInterface)
	if err != nil {
		return nil, err
	}
	lies := newLieSet(q.Routing, q.VirtualLinks, syn)
	return &lies, nil
}

// newLieSet wraps one verified realization (fibbing.Realize).
func newLieSet(quantized *pdrouting.Routing, virtualLinks int, syn *fibbing.Synthesis) LieSet {
	return LieSet{
		Quantized:        quantized,
		VirtualLinks:     virtualLinks,
		FakeNodes:        syn.FakeNodes,
		LiedDestinations: len(syn.LiedDestinations),
		synthesis:        syn,
	}
}

// LieSet is a verified OSPF lie configuration.
type LieSet struct {
	// Quantized is the routing the lies actually realize (ratios are
	// integer-multiplicity approximations of the ideal ones).
	Quantized *pdrouting.Routing
	// VirtualLinks counts next-hop replicas beyond the first.
	VirtualLinks int
	// FakeNodes counts injected fake-node LSAs.
	FakeNodes int
	// LiedDestinations counts destinations that needed any lies.
	LiedDestinations int

	synthesis *fibbing.Synthesis
}

// WriteMessages emits the fake-node LSAs ("OSPF messages", the final stage
// of the paper's Fig. 5 pipeline) as JSON.
func (l *LieSet) WriteMessages(w io.Writer) error {
	return l.synthesis.WriteJSON(w)
}
