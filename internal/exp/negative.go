package exp

import (
	"fmt"
	"math"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/maxflow"
	"github.com/coyote-te/coyote/internal/pdrouting"
)

// gadgetInstance is a constructed OBLIVIOUS IP ROUTING instance from the
// Theorem 1 reduction: one INTEGER gadget (Fig. 2) per element of W.
type gadgetInstance struct {
	G      *graph.Graph
	S1, S2 graph.NodeID
	T      graph.NodeID
	X1, X2 []graph.NodeID // per-gadget entry vertices
	M      []graph.NodeID // per-gadget middle vertices
	W      []float64
	Sum    float64
}

// buildGadget constructs the reduction instance for weight set W.
func buildGadget(W []float64) *gadgetInstance {
	g := graph.New()
	inst := &gadgetInstance{G: g, W: append([]float64(nil), W...)}
	inst.S1 = g.AddNode("s1")
	inst.S2 = g.AddNode("s2")
	inst.T = g.AddNode("t")
	for i, w := range W {
		x1 := g.AddNode(fmt.Sprintf("x1_%d", i))
		x2 := g.AddNode(fmt.Sprintf("x2_%d", i))
		m := g.AddNode(fmt.Sprintf("m_%d", i))
		g.AddLink(x1, x2, w, 1)
		g.AddLink(x1, m, w, 1)
		g.AddLink(x2, m, w, 1)
		g.AddEdge(inst.S1, x1, 2*w, 1)
		g.AddEdge(inst.S2, x2, 2*w, 1)
		g.AddEdge(m, inst.T, 2*w, 1)
		inst.X1 = append(inst.X1, x1)
		inst.X2 = append(inst.X2, x2)
		inst.M = append(inst.M, m)
		inst.Sum += w
	}
	return inst
}

// lemma2Routing builds the explicit oblivious routing of Lemma 2 for a
// bipartition P1 (indices into W whose gadget edge x1→x2 is used; the rest
// orient x2→x1). When P1 is an even bipartition the routing has oblivious
// performance exactly 4/3.
func (inst *gadgetInstance) lemma2Routing(P1 map[int]bool) (*pdrouting.Routing, error) {
	g := inst.G
	member := make([]bool, g.NumEdges())
	on := func(a, b graph.NodeID) graph.EdgeID {
		id, ok := g.FindEdge(a, b)
		if !ok {
			panic("gadget edge missing")
		}
		member[id] = true
		return id
	}
	type gadgetEdges struct {
		s1x1, s2x2, x1x2, x1m, x2m, mt graph.EdgeID
	}
	edges := make([]gadgetEdges, len(inst.W))
	for i := range inst.W {
		ge := &edges[i]
		ge.s1x1 = on(inst.S1, inst.X1[i])
		ge.s2x2 = on(inst.S2, inst.X2[i])
		ge.x1m = on(inst.X1[i], inst.M[i])
		ge.x2m = on(inst.X2[i], inst.M[i])
		ge.mt = on(inst.M[i], inst.T)
		if P1[i] {
			ge.x1x2 = on(inst.X1[i], inst.X2[i])
		} else {
			ge.x1x2 = on(inst.X2[i], inst.X1[i])
		}
	}
	d, err := dagx.FromEdges(g, inst.T, member)
	if err != nil {
		return nil, err
	}
	dags := make([]*dagx.DAG, g.NumNodes())
	for t := 0; t < g.NumNodes(); t++ {
		if graph.NodeID(t) == inst.T {
			dags[t] = d
		} else {
			dags[t] = dagx.Augmented(g, graph.NodeID(t))
		}
	}
	r := pdrouting.Uniform(g, dags)
	// Splitting ratios of Lemma 2: at s1, gadget i receives 4w/(3SUM) if
	// i ∈ P1 else 2w/(3SUM); symmetric at s2 with the complement. Inside
	// a gadget, the entry on the "open" side splits 1/2 toward the middle
	// and 1/2 across; the other entry forwards everything to the middle.
	s1Ratios := make(map[graph.EdgeID]float64)
	s2Ratios := make(map[graph.EdgeID]float64)
	for i, w := range inst.W {
		if P1[i] {
			s1Ratios[edges[i].s1x1] = 4 * w / (3 * inst.Sum)
			s2Ratios[edges[i].s2x2] = 2 * w / (3 * inst.Sum)
		} else {
			s1Ratios[edges[i].s1x1] = 2 * w / (3 * inst.Sum)
			s2Ratios[edges[i].s2x2] = 4 * w / (3 * inst.Sum)
		}
	}
	// Lemma 2's ratios sum to 1 exactly when P1 is an even bipartition;
	// normalize so unbalanced orientations remain valid routings (the
	// normalization is a no-op in the balanced case).
	for _, ratios := range []map[graph.EdgeID]float64{s1Ratios, s2Ratios} {
		sum := 0.0
		for _, v := range ratios {
			sum += v
		}
		for k := range ratios {
			ratios[k] /= sum
		}
	}
	if err := r.SetRatios(inst.T, inst.S1, s1Ratios); err != nil {
		return nil, err
	}
	if err := r.SetRatios(inst.T, inst.S2, s2Ratios); err != nil {
		return nil, err
	}
	for i := range inst.W {
		ge := edges[i]
		var open, x1Out, x2Out map[graph.EdgeID]float64
		if P1[i] {
			open = map[graph.EdgeID]float64{ge.x1m: 0.5, ge.x1x2: 0.5}
			x1Out = open
			x2Out = map[graph.EdgeID]float64{ge.x2m: 1}
		} else {
			x1Out = map[graph.EdgeID]float64{ge.x1m: 1}
			x2Out = map[graph.EdgeID]float64{ge.x2m: 0.5, ge.x1x2: 0.5}
		}
		if err := r.SetRatios(inst.T, inst.X1[i], x1Out); err != nil {
			return nil, err
		}
		if err := r.SetRatios(inst.T, inst.X2[i], x2Out); err != nil {
			return nil, err
		}
		if err := r.SetRatios(inst.T, inst.M[i], map[graph.EdgeID]float64{ge.mt: 1}); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// npGadget demonstrates Theorem 1's reduction numerically: for a positive
// BIPARTITION instance, the Lemma 2 routing achieves utilization exactly
// 4/3 on both extreme demand matrices (whose optimum is 1), while an
// unbalanced orientation does strictly worse.
func npGadget(W []float64, P1 map[int]bool) (*Table, error) {
	inst := buildGadget(W)
	out := &Table{
		Title:   "Theorem 1 gadget — BIPARTITION → OBLIVIOUS IP ROUTING",
		Columns: []string{"orientation", "MxLU(D1)", "MxLU(D2)", "oblivious ratio", "min-cut"},
	}
	n := inst.G.NumNodes()
	D1 := demand.SinglePair(n, inst.S1, inst.T, 2*inst.Sum)
	D2 := demand.SinglePair(n, inst.S2, inst.T, 2*inst.Sum)
	cut := maxflow.MinCutValue(inst.G, []graph.NodeID{inst.S1, inst.S2}, inst.T)

	addRow := func(label string, part map[int]bool) error {
		r, err := inst.lemma2Routing(part)
		if err != nil {
			return err
		}
		u1 := r.MaxUtilization(D1)
		u2 := r.MaxUtilization(D2)
		out.AddRow(label, f2(u1), f2(u2), f2(math.Max(u1, u2)), f2(cut))
		return nil
	}
	if err := addRow("balanced (Lemma 2)", P1); err != nil {
		return nil, err
	}
	// All gadgets oriented the same way: maximally unbalanced.
	all := make(map[int]bool, len(W))
	for i := range W {
		all[i] = true
	}
	if err := addRow("unbalanced (all P1)", all); err != nil {
		return nil, err
	}
	return out, nil
}

// pathLowerBound demonstrates Theorem 4: on the n-source path with unit
// links into t, every per-destination routing suffers PERF ≥ n against the
// unrestricted optimum.
func pathLowerBound(n int) (*Table, error) {
	g := graph.New()
	xs := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		xs[i] = g.AddNode(fmt.Sprintf("x%d", i))
	}
	t := g.AddNode("t")
	for i := 0; i+1 < n; i++ {
		g.AddLink(xs[i], xs[i+1], 1e9, 1)
	}
	for i := 0; i < n; i++ {
		g.AddEdge(xs[i], t, 1, 1)
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	r := pdrouting.Uniform(g, dags)
	out := &Table{
		Title:   fmt.Sprintf("Theorem 4 — path lower bound (n = %d)", n),
		Columns: []string{"source", "MxLU(Di)", "OPTU(Di)", "ratio"},
	}
	worst := 0.0
	for i := 0; i < n; i++ {
		D := demand.SinglePair(g.NumNodes(), xs[i], t, float64(n))
		mxlu := r.MaxUtilization(D)
		opt := float64(n) / maxflow.MinCutValue(g, []graph.NodeID{xs[i]}, t)
		ratio := mxlu / opt
		if ratio > worst {
			worst = ratio
		}
		out.AddRow(g.Name(xs[i]), f2(mxlu), f2(opt), f2(ratio))
	}
	out.AddRow("worst", "", "", f2(worst))
	return out, nil
}
