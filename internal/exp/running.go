package exp

import (
	"context"
	"math"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/strategy"
)

// runningExample reproduces the paper's running example end to end
// (Fig. 1, §II, Appendix B): ECMP's worst case, the hand-crafted Fig. 1c
// ratios, the analytic golden-ratio optimum, and what the optimizer finds.
func runningExample(ctx context.Context, cfg Config) (*Table, error) {
	g := graph.New()
	s1 := g.AddNode("s1")
	s2 := g.AddNode("s2")
	v := g.AddNode("v")
	t := g.AddNode("t")
	g.AddLink(s1, s2, 1, 1)
	g.AddLink(s1, v, 1, 1)
	g.AddLink(s2, v, 1, 1)
	g.AddLink(s2, t, 1, 1)
	g.AddLink(v, t, 1, 1)

	// The Fig. 1c DAG toward t.
	member := make([]bool, g.NumEdges())
	for _, pair := range [][2]graph.NodeID{{s1, s2}, {s1, v}, {s2, v}, {s2, t}, {v, t}} {
		id, _ := g.FindEdge(pair[0], pair[1])
		member[id] = true
	}
	fig1c, err := dagx.FromEdges(g, t, member)
	if err != nil {
		return nil, err
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	dags[t] = fig1c

	min := demand.NewMatrix(g.NumNodes())
	max := demand.NewMatrix(g.NumNodes())
	max.Set(s1, t, 2)
	max.Set(s2, t, 2)
	box := demand.NewBox(min, max)
	ev := cfg.evaluator(g, dags, box)

	out := &Table{
		Title:   "Running example (Fig. 1) — oblivious performance over demands [0,2]²",
		Columns: []string{"routing", "PERF", "paper"},
	}

	// ECMP on the Fig. 1c DAG's shortest-path subset.
	ecmp := oblivious.ECMPOnDAGs(g, dags)
	out.AddRow("ECMP (unit weights)", f2(ev.Perf(ecmp).Ratio), "2.00")

	// Fig. 1c hand-tuned ratios (2/3, 1/3).
	fig1cRouting := pdrouting.Uniform(g, dags)
	es1s2, _ := g.FindEdge(s1, s2)
	es1v, _ := g.FindEdge(s1, v)
	es2t, _ := g.FindEdge(s2, t)
	es2v, _ := g.FindEdge(s2, v)
	evt, _ := g.FindEdge(v, t)
	if err := fig1cRouting.SetRatios(t, s1, map[graph.EdgeID]float64{es1s2: 0.5, es1v: 0.5}); err != nil {
		return nil, err
	}
	if err := fig1cRouting.SetRatios(t, s2, map[graph.EdgeID]float64{es2t: 2.0 / 3, es2v: 1.0 / 3}); err != nil {
		return nil, err
	}
	if err := fig1cRouting.SetRatios(t, v, map[graph.EdgeID]float64{evt: 1}); err != nil {
		return nil, err
	}
	out.AddRow("Fig. 1c ratios", f2(ev.Perf(fig1cRouting).Ratio), "1.33")

	// Appendix B analytic optimum.
	golden := (math.Sqrt(5) - 1) / 2
	goldenRouting := fig1cRouting.Clone()
	if err := goldenRouting.SetRatios(t, s1, map[graph.EdgeID]float64{es1s2: golden, es1v: 1 - golden}); err != nil {
		return nil, err
	}
	if err := goldenRouting.SetRatios(t, s2, map[graph.EdgeID]float64{es2t: golden, es2v: 1 - golden}); err != nil {
		return nil, err
	}
	out.AddRow("golden ratio (App. B)", f2(ev.Perf(goldenRouting).Ratio), "1.24")

	// What COYOTE's optimizer finds on the same DAGs.
	sv, err := strategy.Solve(ctx, ev, oblivious.Options{OptIters: cfg.OptIters * 4, AdvIters: cfg.AdvIters + 2})
	if err != nil {
		return nil, err
	}
	out.AddRow("COYOTE optimizer", f2(sv.Perf.Ratio), "≤1.24")
	return out, nil
}
