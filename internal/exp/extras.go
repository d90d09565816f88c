package exp

import (
	"context"
	"fmt"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/localsearch"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/par"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/strategy"
	"github.com/coyote-te/coyote/internal/wcmp"
)

// fig9 reproduces Fig. 9: Abilene under the local-search DAG-construction
// heuristic with the bimodal base model — ECMP vs COYOTE-partial-knowledge,
// both using the DAGs derived from the locally-searched weights.
func fig9(ctx context.Context, cfg Config) (*Table, error) {
	in, err := loadInput("Abilene", "bimodal", cfg, false)
	if err != nil {
		return nil, err
	}
	return marginTable("Fig. 9 — Abilene, local-search heuristic, bimodal model", []string{"ECMP", "COYOTE-pk"}, cfg,
		func(margin float64) ([]string, error) {
			box := demand.MarginBox(in.base, margin)
			tuned, err := localsearch.Reweight(in.g, box, cfg.AdvIters, cfg.Seed)
			if err != nil {
				return nil, err
			}
			dags := dagx.BuildAll(tuned, dagx.Augmented)
			ev := cfg.evaluator(tuned, dags, box)
			ecmp := ev.Perf(oblivious.ECMPOnDAGs(tuned, dags))
			pk, err := strategy.Solve(ctx, ev, cfg.Options())
			if err != nil {
				return nil, err
			}
			return []string{f2(ecmp.Ratio), f2(pk.Perf.Ratio)}, nil
		})
}

// fig10 reproduces Fig. 10: how closely quantized splitting (3, 5, 10
// virtual next-hops per interface, per [18]) approximates ideal COYOTE on
// AS1755, and how both compare to ECMP.
func fig10(ctx context.Context, cfg Config) (*Table, error) {
	in, err := loadInput("AS1755", "gravity", cfg, true)
	if err != nil {
		return nil, err
	}
	budgets := []int{3, 5, 10}
	cols := []string{"ECMP", "COYOTE-ideal"}
	for _, k := range budgets {
		cols = append(cols, fmt.Sprintf("%d NHs", k))
	}
	return marginTable("Fig. 10 — AS1755: splitting-ratio approximation via virtual next-hops", cols, cfg,
		func(margin float64) ([]string, error) {
			ev := cfg.evaluator(in.g, in.dags, demand.MarginBox(in.base, margin))
			ideal, err := strategy.Solve(ctx, ev, cfg.Options())
			if err != nil {
				return nil, err
			}
			row := []string{f2(ev.Perf(oblivious.ECMPOnDAGs(in.g, in.dags)).Ratio), f2(ideal.Perf.Ratio)}
			for _, k := range budgets {
				q, err := wcmp.Apply(ideal.Routing, k)
				if err != nil {
					return nil, err
				}
				row = append(row, f2(ev.Perf(q.Routing).Ratio))
			}
			return row, nil
		})
}

// fig11 reproduces Fig. 11 on the named networks: the average path
// stretch (expected hop count relative to ECMP on shortest paths) of
// COYOTE's routings at margin 2.5.
func fig11(ctx context.Context, cfg Config, names []string) (*Table, error) {
	const margin = 2.5
	rows := make([][]string, len(names))
	if err := par.ForErr(cfg.Workers, len(names), func(i int) error {
		in, err := loadInput(names[i], "gravity", cfg, true)
		if err != nil {
			return err
		}
		pk, err := strategy.Solve(ctx, cfg.evaluator(in.g, in.dags, demand.MarginBox(in.base, margin)), cfg.Options())
		if err != nil {
			return err
		}
		// The oblivious box's cap is 1, not SweepGraph's base-matrix
		// maximum: PERF is scale-invariant but the optimizer's trajectory
		// is not, and the recorded Fig. 11 numbers use cap 1.
		obl, err := strategy.Solve(ctx, cfg.evaluator(in.g, in.dags, demand.ObliviousBox(in.g.NumNodes(), 1)), cfg.Options())
		if err != nil {
			return err
		}
		ecmp := oblivious.ECMPOnDAGs(in.g, in.dags)
		rows[i] = []string{names[i], f2(stretch(obl.Routing, ecmp)), f2(stretch(pk.Routing, ecmp))}
		return nil
	}); err != nil {
		return nil, err
	}
	return &Table{
		Title:   "Fig. 11 — average path stretch vs ECMP (margin 2.5)",
		Columns: []string{"network", "COYOTE-oblivious", "COYOTE-pk"},
		Rows:    rows,
	}, nil
}

// stretch computes the mean over all ordered pairs of the ratio between a
// routing's expected hop count and ECMP's.
func stretch(r, ecmp *pdrouting.Routing) float64 {
	var sum float64
	var count int
	n := r.G.NumNodes()
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t {
				continue
			}
			base := ecmp.ExpectedHops(graph.NodeID(s), graph.NodeID(t))
			if base <= 0 {
				continue
			}
			sum += r.ExpectedHops(graph.NodeID(s), graph.NodeID(t)) / base
			count++
		}
	}
	if count == 0 {
		return 1
	}
	return sum / float64(count)
}

// ablationDAG quantifies the value of Step II DAG augmentation (§V-B): the
// PERF of COYOTE with and without augmented DAGs on Geant.
func ablationDAG(ctx context.Context, cfg Config) (*Table, error) {
	in, err := loadInput("Geant", "gravity", cfg, true)
	if err != nil {
		return nil, err
	}
	spOnly := dagx.BuildAll(in.g, dagx.ShortestPath)
	return marginTable("Ablation — DAG augmentation (Geant, gravity)", []string{"COYOTE-augmented", "COYOTE-sp-only"}, cfg,
		func(margin float64) ([]string, error) {
			box := demand.MarginBox(in.base, margin)
			// Both variants are normalized within the augmented DAGs so the
			// numbers are comparable.
			ev := cfg.evaluator(in.g, in.dags, box)
			aug, err := strategy.Solve(ctx, ev, cfg.Options())
			if err != nil {
				return nil, err
			}
			sp, err := strategy.Solve(ctx, cfg.evaluator(in.g, spOnly, box), cfg.Options())
			if err != nil {
				return nil, err
			}
			// Re-express the SP-only routing over the augmented DAG membership
			// for apples-to-apples evaluation (zero ratios on extra edges; the
			// augmented DAGs contain the shortest-path DAGs, so the ratio
			// vectors carry over unchanged).
			spOnAug := pdrouting.NewZero(in.g, in.dags)
			for t := range spOnAug.Phi {
				copy(spOnAug.Phi[t], sp.Routing.Phi[t])
			}
			return []string{f2(aug.Perf.Ratio), f2(ev.Perf(spOnAug).Ratio)}, nil
		})
}
