package exp

import (
	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/localsearch"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/par"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/topo"
	"github.com/coyote-te/coyote/internal/wcmp"
)

// Fig9 reproduces Fig. 9: Abilene under the local-search DAG-construction
// heuristic with the bimodal base model — ECMP vs COYOTE-partial-knowledge,
// both using the DAGs derived from the locally-searched weights.
func Fig9(cfg Config) (*Table, error) {
	g, err := topo.Load("Abilene")
	if err != nil {
		return nil, err
	}
	base, err := baseMatrix(g, "bimodal", cfg.Seed)
	if err != nil {
		return nil, err
	}
	out := &Table{
		Title:   "Fig. 9 — Abilene, local-search heuristic, bimodal model",
		Columns: []string{"margin", "ECMP", "COYOTE-pk"},
	}
	rows := make([][]string, len(cfg.Margins))
	if err := par.ForErr(cfg.Workers, len(cfg.Margins), func(i int) error {
		margin := cfg.Margins[i]
		box := demand.MarginBox(base, margin)
		ls, err := localsearch.Optimize(g, box, localsearch.Config{
			OuterIters: cfg.AdvIters, InnerMoves: 10 * g.NumEdges(), Seed: cfg.Seed,
		})
		if err != nil {
			return err
		}
		tuned := g.Clone()
		tuned.SetWeights(ls.Weights)
		dags := dagx.BuildAll(tuned, dagx.Augmented)
		ev := cfg.evaluator(tuned, dags, box)
		ecmp := ev.Perf(oblivious.ECMPOnDAGs(tuned, dags))
		_, rep := cfg.optimize(ev)
		rows[i] = []string{f1(margin), f2(ecmp.Ratio), f2(rep.Perf.Ratio)}
		return nil
	}); err != nil {
		return nil, err
	}
	out.Rows = rows
	return out, nil
}

// Fig10 reproduces Fig. 10: how closely quantized splitting (3, 5, 10
// virtual next-hops per interface, per [18]) approximates ideal COYOTE on
// AS1755, and how both compare to ECMP.
func Fig10(cfg Config, budgets []int) (*Table, error) {
	if budgets == nil {
		budgets = []int{3, 5, 10}
	}
	g, err := topo.Load("AS1755")
	if err != nil {
		return nil, err
	}
	base, err := baseMatrix(g, "gravity", cfg.Seed)
	if err != nil {
		return nil, err
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	out := &Table{
		Title:   "Fig. 10 — AS1755: splitting-ratio approximation via virtual next-hops",
		Columns: []string{"margin", "ECMP", "COYOTE-ideal", "3 NHs", "5 NHs", "10 NHs"},
	}
	rows := make([][]string, len(cfg.Margins))
	if err := par.ForErr(cfg.Workers, len(cfg.Margins), func(i int) error {
		margin := cfg.Margins[i]
		box := demand.MarginBox(base, margin)
		ev := cfg.evaluator(g, dags, box)
		ideal, rep := cfg.optimize(ev)
		row := []string{f1(margin), f2(ev.Perf(oblivious.ECMPOnDAGs(g, dags)).Ratio), f2(rep.Perf.Ratio)}
		for _, k := range budgets {
			q, err := wcmp.Apply(ideal, k)
			if err != nil {
				return err
			}
			row = append(row, f2(ev.Perf(q.Routing).Ratio))
		}
		rows[i] = row
		return nil
	}); err != nil {
		return nil, err
	}
	out.Rows = rows
	return out, nil
}

// Fig11 reproduces Fig. 11: the average path stretch (expected hop count
// relative to ECMP on shortest paths) of COYOTE's routings at margin 2.5.
func Fig11(cfg Config, names []string) (*Table, error) {
	if names == nil {
		names = topo.TableNames()
	}
	out := &Table{
		Title:   "Fig. 11 — average path stretch vs ECMP (margin 2.5)",
		Columns: []string{"network", "COYOTE-oblivious", "COYOTE-pk"},
	}
	const margin = 2.5
	rows := make([][]string, len(names))
	if err := par.ForErr(cfg.Workers, len(names), func(i int) error {
		name := names[i]
		g, err := topo.Load(name)
		if err != nil {
			return err
		}
		base, err := baseMatrix(g, "gravity", cfg.Seed)
		if err != nil {
			return err
		}
		dags := dagx.BuildAll(g, dagx.Augmented)
		box := demand.MarginBox(base, margin)
		ev := cfg.evaluator(g, dags, box)
		pk, _ := cfg.optimize(ev)
		oblBox := demand.ObliviousBox(g.NumNodes(), 1)
		oblEv := cfg.evaluator(g, dags, oblBox)
		obl, _ := cfg.optimize(oblEv)
		ecmp := oblivious.ECMPOnDAGs(g, dags)
		rows[i] = []string{name, f2(stretch(obl, ecmp)), f2(stretch(pk, ecmp))}
		return nil
	}); err != nil {
		return nil, err
	}
	out.Rows = rows
	return out, nil
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

// AblationDAG quantifies the value of Step II DAG augmentation (§V-B): the
// PERF of COYOTE with and without augmented DAGs on one topology.
func AblationDAG(topoName string, cfg Config) (*Table, error) {
	g, err := topo.Load(topoName)
	if err != nil {
		return nil, err
	}
	base, err := baseMatrix(g, "gravity", cfg.Seed)
	if err != nil {
		return nil, err
	}
	out := &Table{
		Title:   "Ablation — DAG augmentation (" + topoName + ", gravity)",
		Columns: []string{"margin", "COYOTE-augmented", "COYOTE-sp-only"},
	}
	augment := dagx.BuildAll(g, dagx.Augmented)
	spOnly := dagx.BuildAll(g, dagx.ShortestPath)
	rows := make([][]string, len(cfg.Margins))
	par.For(cfg.Workers, len(cfg.Margins), func(i int) {
		margin := cfg.Margins[i]
		box := demand.MarginBox(base, margin)
		// Both variants are normalized within the augmented DAGs so the
		// numbers are comparable.
		ev := cfg.evaluator(g, augment, box)
		_, repAug := cfg.optimize(ev)
		spRouting, _ := cfg.optimize(cfg.evaluator(g, spOnly, box))
		// Re-express the SP-only routing over the augmented DAG membership
		// for apples-to-apples evaluation (zero ratios on extra edges; the
		// augmented DAGs contain the shortest-path DAGs, so the ratio
		// vectors carry over unchanged).
		spOnAug := pdrouting.NewZero(g, augment)
		for t := range spOnAug.Phi {
			copy(spOnAug.Phi[t], spRouting.Phi[t])
		}
		rows[i] = []string{f1(margin), f2(repAug.Perf.Ratio), f2(ev.Perf(spOnAug).Ratio)}
	})
	out.Rows = rows
	return out, nil
}
