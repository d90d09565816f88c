// Package failover precomputes COYOTE routing configurations for failure
// scenarios. §VI-A of the paper notes that, because COYOTE routing is
// static, "routing configurations for failure scenarios (e.g., every
// single link/node failure) can be precomputed"; this package does exactly
// that for single-link failures (Precompute) and single-node failures
// (PrecomputeNodes): for each surviving topology it rebuilds the augmented
// DAGs, re-optimizes the splitting ratios against the same uncertainty
// bounds, and records the achievable worst-case performance.
package failover

import (
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/par"
	"github.com/coyote-te/coyote/internal/strategy"
)

// Config tunes the per-scenario optimization: the solve's one parameter
// set, with lighter defaults than the primary configuration since there is
// one run per failure (OptIters 250, AdvIters 3, Samples 4). Workers also
// sizes the pool scenarios are spread across.
type Config = oblivious.Params

func withDefaults(c Config) Config {
	if c.OptIters <= 0 {
		c.OptIters = 250
	}
	if c.AdvIters <= 0 {
		c.AdvIters = 3
	}
	if c.Samples <= 0 {
		c.Samples = 4
	}
	return c
}

// GroupScenario is one precomputed failure configuration: a group of links
// (a single link, a shared-risk link group, or a sampled k-link combination
// from the scenario engine) fails at once and the survivors are
// re-optimized.
type GroupScenario struct {
	// Failed lists the representative edge IDs (in the original graph) of
	// the links that fail together.
	Failed []graph.EdgeID
	// Disconnected reports that the group's failure partitions the
	// network; no configuration is computed in that case (Solved is nil).
	Disconnected bool
	// Solved is the re-optimized configuration on the surviving topology
	// (Solved.Ev.G, with its own edge IDs). Its evaluator holds the OPTDAG
	// and max-flow normalizations (exact-LP solves) paid for while
	// precomputing; they depend only on the survivor and its DAGs, never on
	// the uncertainty box, so a session swapping the scenario in
	// (delta.Session.Fail) rebinds it to the live box and the failure
	// reaction re-pays no normalization — that reuse is what makes the warm
	// reaction latency near-O(affected) end to end (DESIGN.md §12).
	Solved *strategy.Solved
	// ECMPPerf is traditional ECMP's worst-case normalized utilization on
	// the surviving topology, evaluated once more after the solve. It is
	// not Solved.ECMPPerf: that one is the loop's own estimate, drawn
	// earlier in the evaluator's sampling sequence, so the two can differ.
	// This field is the scenario's published number (tables, pin_test) and
	// the value it always was; read Solved.ECMPPerf only when treating the
	// configuration like any other Solved. Both stay because the second
	// evaluation is also what leaves the evaluator's sequence and caches
	// where Session.Fail expects them.
	ECMPPerf float64
}

// Plan holds the normal-case configuration plus one scenario per physical
// link.
type Plan struct {
	Normal    *strategy.Solved
	Scenarios []GroupScenario // one single-link group per g.Links() entry
}

// Precompute builds the failure plan: the normal-case COYOTE configuration
// plus a re-optimized configuration for every single-link failure.
// Scenarios are computed in parallel.
func Precompute(g *graph.Graph, box *demand.Box, cfg Config) (*Plan, error) {
	cfg = withDefaults(cfg)
	normal, err := strategy.Coyote(g, box, cfg)
	if err != nil {
		return nil, err
	}
	scenarios, err := PrecomputeLinks(g, box, cfg)
	if err != nil {
		return nil, err
	}
	return &Plan{Normal: normal, Scenarios: scenarios}, nil
}

// PrecomputeLinks computes one single-link scenario per physical link, in
// g.Links() order (each scenario's Failed[0] is its link).
func PrecomputeLinks(g *graph.Graph, box *demand.Box, cfg Config) ([]GroupScenario, error) {
	links := g.Links()
	groups := make([][]graph.EdgeID, len(links))
	for i, id := range links {
		groups[i] = []graph.EdgeID{id}
	}
	return PrecomputeGroups(g, box, groups, cfg)
}

// WorstScenario returns the scenario with the highest post-failure PERF
// (ignoring disconnecting failures), or nil if none exists.
func (p *Plan) WorstScenario() *GroupScenario {
	var worst *GroupScenario
	for i := range p.Scenarios {
		sc := &p.Scenarios[i]
		if sc.Disconnected {
			continue
		}
		if worst == nil || sc.Solved.Perf.Ratio > worst.Solved.Perf.Ratio {
			worst = sc
		}
	}
	return worst
}

// NumDisconnecting counts failures that partition the network (bridges).
func (p *Plan) NumDisconnecting() int {
	n := 0
	for i := range p.Scenarios {
		if p.Scenarios[i].Disconnected {
			n++
		}
	}
	return n
}

// PrecomputeGroups computes one scenario per group of failed links — the
// multi-link generalization of Precompute that internal/scen's SRLG
// and k-link failure suites feed. Groups are computed in parallel; an
// empty group yields the normal-topology configuration.
func PrecomputeGroups(g *graph.Graph, box *demand.Box, groups [][]graph.EdgeID, cfg Config) ([]GroupScenario, error) {
	cfg = withDefaults(cfg)
	out := make([]GroupScenario, len(groups))
	err := par.ForErr(cfg.Workers, len(groups), func(i int) error {
		out[i].Failed = append([]graph.EdgeID(nil), groups[i]...)
		survivor := g.WithoutLinks(out[i].Failed)
		if !survivor.Connected() {
			out[i].Disconnected = true
			return nil
		}
		sv, err := strategy.Coyote(survivor, box, cfg)
		if err != nil {
			return err
		}
		out[i].Solved = sv
		// ECMP's verdict after the loop is part of the scenario's state,
		// not only of its report: it advances the evaluator's sampling
		// sequence and fills the normalization caches a session later
		// inherits when it rebinds the scenario.
		out[i].ECMPPerf = sv.Ev.Perf(oblivious.ECMPOnDAGs(survivor, sv.Ev.DAGs)).Ratio
		return nil
	})
	return out, err
}

// NodeScenario is one precomputed single-node-failure configuration: the
// failed router is isolated (its links removed) and its demands drop out
// of the uncertainty set; the rest of the network is re-optimized.
type NodeScenario struct {
	Failed       graph.NodeID
	Disconnected bool             // the survivors are no longer mutually reachable (Solved is nil)
	Solved       *strategy.Solved // the re-optimized configuration
}

// PrecomputeNodes builds per-node failure configurations ("every single
// link/node failure can be precomputed", §VI-A). The failed node's own
// demands are zeroed; scenarios whose survivors are partitioned are marked
// Disconnected.
func PrecomputeNodes(g *graph.Graph, box *demand.Box, cfg Config) ([]NodeScenario, error) {
	cfg = withDefaults(cfg)
	out := make([]NodeScenario, g.NumNodes())
	err := par.ForErr(cfg.Workers, g.NumNodes(), func(v int) (err error) {
		failed := graph.NodeID(v)
		out[v].Failed = failed
		// Every link incident to the failed node goes (WithoutLinks takes
		// each listed edge's reverse with it).
		incident := append(append([]graph.EdgeID(nil), g.Out(failed)...), g.In(failed)...)
		survivor := g.WithoutLinks(incident)
		if !survivorsConnected(survivor, failed) {
			out[v].Disconnected = true
			return nil
		}
		// Zero the failed node's demands in the box.
		min, max := box.Min.Clone(), box.Max.Clone()
		n := min.N
		for u := 0; u < n; u++ {
			for _, i := range [2]int{v*n + u, u*n + v} {
				min.D[i], max.D[i] = 0, 0
			}
		}
		out[v].Solved, err = strategy.Coyote(survivor, demand.NewBox(min, max), cfg)
		return err
	})
	return out, err
}

// survivorsConnected reports whether all nodes other than failed — which
// the survivor graph leaves isolated — remain mutually reachable: hanging
// the isolated node off one survivor as a leaf makes that exactly strong
// connectivity of the whole graph.
func survivorsConnected(survivor *graph.Graph, failed graph.NodeID) bool {
	if survivor.NumNodes() <= 2 {
		return true
	}
	anchor := graph.NodeID(0)
	if anchor == failed {
		anchor = 1
	}
	probe := survivor.Clone()
	probe.AddLink(failed, anchor, 1, 1)
	return probe.Connected()
}
