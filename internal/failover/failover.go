// Package failover precomputes COYOTE routing configurations for failure
// scenarios. §VI-A of the paper notes that, because COYOTE routing is
// static, "routing configurations for failure scenarios (e.g., every
// single link/node failure) can be precomputed"; PrecomputeGroups does that
// for any failure suite of internal/scen (single links, shared-risk link
// groups, k-link combinations): for each surviving topology it rebuilds the
// augmented DAGs, re-optimizes the splitting ratios against the same
// uncertainty bounds, and records the achievable worst-case performance.
package failover

import (
	"context"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/par"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/strategy"
)

// withDefaults gives the per-scenario optimization lighter defaults than
// the primary configuration, since there is one run per failure.
func withDefaults(c oblivious.Params) oblivious.Params {
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
	// Set is the failure: its name and the representative edge IDs (in the
	// original graph) of the links that fail together.
	Set scen.FailureSet
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

// PrecomputeGroups computes one scenario per failure set, in suite order.
// Sets are computed in parallel across cfg.Workers; an empty set yields the
// normal-topology configuration. Zero fields of cfg default to OptIters
// 250, AdvIters 3 and Samples 4. Each solve's span tree is recorded under
// ctx when it carries an obs.Tracer.
func PrecomputeGroups(ctx context.Context, g *graph.Graph, box *demand.Box, sets []scen.FailureSet, cfg oblivious.Params) ([]GroupScenario, error) {
	cfg = withDefaults(cfg)
	out := make([]GroupScenario, len(sets))
	err := par.ForErr(cfg.Workers, len(sets), func(i int) error {
		out[i].Set = scen.FailureSet{Name: sets[i].Name, Links: append([]graph.EdgeID(nil), sets[i].Links...)}
		survivor := g.WithoutLinks(out[i].Set.Links)
		if !survivor.Connected() {
			out[i].Disconnected = true
			return nil
		}
		sv, err := strategy.Coyote(ctx, survivor, box, cfg)
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
