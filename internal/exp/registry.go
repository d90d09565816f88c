package exp

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/topo"
)

// runner produces one experiment's table under a configuration, recording
// its solves' span trees under ctx when it carries an obs.Tracer.
type runner func(ctx context.Context, cfg Config) (*Table, error)

// registry maps experiment IDs (DESIGN.md §3) to runners; it is the
// package's only door to them.
var registry = map[string]runner{
	"running":      runningExample,
	"fig6":         corpusSweep("Fig. 6", "Geant", "gravity"),
	"fig7":         corpusSweep("Fig. 7", "Digex", "gravity"),
	"fig8":         corpusSweep("Fig. 8", "AS1755", "bimodal"),
	"fig9":         marginsTo5(fig9),
	"fig10":        fig10,
	"fig11":        func(ctx context.Context, cfg Config) (*Table, error) { return fig11(ctx, cfg, topo.TableNames()) },
	"fig12":        fig12,
	"table1":       marginsTo5(func(ctx context.Context, cfg Config) (*Table, error) { return table1(ctx, cfg, topo.TableNames()) }),
	"ablation-dag": ablationDAG,
	"ablation-adv": ablationAdversary,
	"failover":     failoverTable,
	"negative-np": func(context.Context, Config) (*Table, error) {
		// W = {3,5,8}: positive BIPARTITION instance (8 = 3+5).
		return npGadget([]float64{3, 5, 8}, map[int]bool{2: true})
	},
	"negative-path": func(context.Context, Config) (*Table, error) {
		return pathLowerBound(6)
	},
	// Scenario-engine sweeps (internal/scen): generated topologies and
	// workload suites through the same parallel evaluator. Sizes are kept
	// modest so `-all` stays tractable; cmd/coyote-scen sweeps arbitrary
	// parameters.
	"scen-waxman": func(ctx context.Context, cfg Config) (*Table, error) {
		return ScenSweep(ctx, "waxman", scen.Params{N: 16}, "gravity", cfg)
	},
	"scen-ba": func(ctx context.Context, cfg Config) (*Table, error) {
		return ScenSweep(ctx, "ba", scen.Params{N: 16, M: 2}, "gravity", cfg)
	},
	"scen-fattree": func(ctx context.Context, cfg Config) (*Table, error) {
		return ScenSweep(ctx, "fattree", scen.Params{K: 4}, "hotspot", cfg)
	},
	"scen-grid-day": func(ctx context.Context, cfg Config) (*Table, error) {
		return scenTimeOfDay(ctx, scen.Params{Rows: 4, Cols: 4}, 12, cfg)
	},
	"scen-srlg": func(ctx context.Context, cfg Config) (*Table, error) {
		return scenSRLG(ctx, scen.Params{N: 10, M: 4}, 5, cfg)
	},
	// Online-controller drift replay (internal/delta): warm incremental
	// recomputation vs cold batch recomputation over a day of demand.
	"serve-drift": func(ctx context.Context, cfg Config) (*Table, error) {
		return serveDrift(ctx, scen.Params{Rows: 3, Cols: 4}, 8, cfg)
	},
	// TE strategy portfolio (internal/strategy): every registered strategy
	// head-to-head, normalized by the per-matrix OPT oracle.
	"portfolio":          portfolio,
	"portfolio-failures": portfolioFailures,
}

// marginsTo5 runs r over margins 1–5 in 0.5 increments, the span of
// Fig. 9 and Table I.
func marginsTo5(r runner) runner {
	return func(ctx context.Context, cfg Config) (*Table, error) {
		cfg.Margins = []float64{1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5}
		return r(ctx, cfg)
	}
}

// IDs returns the registered experiment IDs, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ErrUnknownID is returned (wrapped) by Run when asked for an experiment ID
// that is not in the registry. Callers can detect it with errors.Is; the
// wrapped message lists every valid ID.
var ErrUnknownID = errors.New("unknown experiment ID")

// Run executes the experiment with the given ID under cfg; its solves record
// their span trees under ctx when it carries an obs.Tracer. The registered
// IDs (see EXPERIMENTS.md for what each reproduces) are:
//
//	running        — Fig. 1 / Appendix B running example
//	fig6           — Fig. 6: Geant, gravity model, PERF vs margin
//	fig7           — Fig. 7: Digex, gravity model, PERF vs margin
//	fig8           — Fig. 8: AS1755, bimodal model, PERF vs margin
//	fig9           — Fig. 9: Abilene, local-search heuristic, margins 1–5
//	fig10          — Fig. 10: virtual next-hop quantization on AS1755
//	fig11          — Fig. 11: average path stretch vs ECMP
//	fig12          — Fig. 12: §VII prototype emulation
//	table1         — Table I: corpus × margin sweep, margins 1–5
//	ablation-dag   — DAG-augmentation ablation (Geant)
//	ablation-adv   — sampled vs exact (cutting-plane) adversary (Abilene)
//	failover       — per-link failure configurations (NSF)
//	negative-np    — Theorem 1 NP-hardness gadget
//	negative-path  — Theorem 4 path lower bound
//	scen-waxman    — margin sweep on a generated Waxman WAN
//	scen-ba        — margin sweep on a Barabási–Albert graph
//	scen-fattree   — hotspot-demand sweep on a k=4 fat-tree fabric
//	scen-grid-day  — time-of-day sequence vs one static config (grid WAN)
//	scen-srlg      — shared-risk link-group failures on a ring WAN
//	serve-drift    — online controller: warm vs cold recompute over a
//	                 time-of-day drift, with LSA churn per step
//	portfolio      — strategy × scenario head-to-head, MLU ratios vs OPT
//	portfolio-failures — the same head-to-head on link-failure survivors
//
// An unregistered ID yields an error wrapping ErrUnknownID that lists the
// valid IDs.
func Run(ctx context.Context, id string, cfg Config) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("exp: %w %q (valid IDs: %s)", ErrUnknownID, id, strings.Join(IDs(), ", "))
	}
	return r(ctx, cfg)
}
