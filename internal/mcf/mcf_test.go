package mcf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
)

func paperExample() (*graph.Graph, map[string]graph.NodeID) {
	g := graph.New()
	ids := map[string]graph.NodeID{
		"s1": g.AddNode("s1"),
		"s2": g.AddNode("s2"),
		"v":  g.AddNode("v"),
		"t":  g.AddNode("t"),
	}
	g.AddLink(ids["s1"], ids["s2"], 1, 1)
	g.AddLink(ids["s1"], ids["v"], 1, 1)
	g.AddLink(ids["s2"], ids["v"], 1, 1)
	g.AddLink(ids["s2"], ids["t"], 1, 1)
	g.AddLink(ids["v"], ids["t"], 1, 1)
	return g, ids
}

// The running example: demand (2,0) routes optimally at MLU 1 by splitting
// between (s1 s2 t) and (s1 v t) — §II of the paper.
func TestExactRunningExampleD1(t *testing.T) {
	g, ids := paperExample()
	D := demand.NewMatrix(g.NumNodes())
	D.Set(ids["s1"], ids["t"], 2)
	mlu, flows, err := MinMLUExact(g, nil, D)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mlu-1) > 1e-6 {
		t.Fatalf("OPTU = %g, want 1", mlu)
	}
	// Conservation at s1: net outflow = 2.
	out := 0.0
	for _, id := range g.Out(ids["s1"]) {
		out += flows[ids["t"]][id]
	}
	for _, id := range g.In(ids["s1"]) {
		out -= flows[ids["t"]][id]
	}
	if math.Abs(out-2) > 1e-6 {
		t.Fatalf("net outflow at s1 = %g, want 2", out)
	}
}

// fig4 is the network of Fig. 4 (Theorem 4): n sources x0…x(n−1) on a path of
// near-infinite capacity, each with a unit edge to t, and demand n at x0.
func fig4(n int) (*graph.Graph, *demand.Matrix) {
	g := graph.New()
	xs := g.AddNodes(n)
	t := g.AddNode("t")
	for i := 0; i+1 < n; i++ {
		g.AddLink(xs+graph.NodeID(i), xs+graph.NodeID(i+1), 1e9, 1)
	}
	for i := 0; i < n; i++ {
		g.AddEdge(xs+graph.NodeID(i), t, 1, 1)
	}
	D := demand.NewMatrix(g.NumNodes())
	D.Set(xs, t, float64(n))
	return g, D
}

// TestExactCutBound: instances whose optimum is the bound of one cut. In the
// running example with both users at full demand, total 4 must cross the cut
// {(s2,t),(v,t)} of capacity 2, so OPTU = 2. In Fig. 4, demand 5 at x0 is
// balanced over the five unit edges into t, so OPTU = 1.
func TestExactCutBound(t *testing.T) {
	g, ids := paperExample()
	D := demand.NewMatrix(g.NumNodes())
	D.Set(ids["s1"], ids["t"], 2)
	D.Set(ids["s2"], ids["t"], 2)
	g4, D4 := fig4(5)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		D    *demand.Matrix
		want float64
	}{{"running-example", g, D, 2}, {"fig4", g4, D4, 1}} {
		mlu, _, err := MinMLUExact(tc.g, nil, tc.D)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mlu-tc.want) > 1e-6 {
			t.Fatalf("%s: OPTU = %g, want %g (cut bound)", tc.name, mlu, tc.want)
		}
	}
}

func TestExactDAGRestricted(t *testing.T) {
	g, ids := paperExample()
	// Under the plain SP DAG toward t (s2 has only the direct edge),
	// demand (0,2) cannot use the detour: MLU 2. The augmented DAG with
	// the v->s2 orientation doesn't help s2 either (the link points the
	// wrong way), still 2. But the unrestricted optimum is 1.
	D := demand.NewMatrix(g.NumNodes())
	D.Set(ids["s2"], ids["t"], 2)
	spDags := dagx.BuildAll(g, dagx.ShortestPath)
	mluDAG, _, err := MinMLUExact(g, spDags, D)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mluDAG-2) > 1e-6 {
		t.Fatalf("OPTDAG = %g, want 2", mluDAG)
	}
	mluFree, _, err := MinMLUExact(g, nil, D)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mluFree-1) > 1e-6 {
		t.Fatalf("OPTU = %g, want 1", mluFree)
	}
}

func TestExactUnroutable(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddEdge(b, a, 1, 1) // only b->a; a cannot reach b
	D := demand.NewMatrix(2)
	D.Set(a, b, 1)
	mlu, _, err := MinMLUExact(g, nil, D)
	if err == nil || !math.IsInf(mlu, 1) {
		t.Fatalf("want unroutable, got mlu=%g err=%v", mlu, err)
	}
}

func TestApproxUnroutable(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddEdge(b, a, 1, 1)
	D := demand.NewMatrix(2)
	D.Set(a, b, 1)
	if _, _, err := MinMLUApprox(g, dagx.BuildAll(g, dagx.Augmented), D, 0.1); err == nil {
		t.Fatal("want unroutable error")
	}
}

func TestZeroDemand(t *testing.T) {
	g, _ := paperExample()
	dags := dagx.BuildAll(g, dagx.Augmented)
	D := demand.NewMatrix(g.NumNodes())
	mlu, _, err := MinMLUExact(g, dags, D)
	if err != nil || mlu != 0 {
		t.Fatalf("zero demand: mlu=%g err=%v", mlu, err)
	}
	mlu, _, err = MinMLUApprox(g, dags, D, 0.1)
	if err != nil || mlu != 0 {
		t.Fatalf("zero demand approx: mlu=%g err=%v", mlu, err)
	}
}

func TestApproxEpsValidation(t *testing.T) {
	g, ids := paperExample()
	D := demand.NewMatrix(g.NumNodes())
	D.Set(ids["s1"], ids["t"], 1)
	dags := dagx.BuildAll(g, dagx.Augmented)
	if _, _, err := MinMLUApprox(g, dags, D, 0); err == nil {
		t.Fatal("eps=0 should be rejected")
	}
	if _, _, err := MinMLUApprox(g, dags, D, 0.9); err == nil {
		t.Fatal("eps=0.9 should be rejected")
	}
}

func TestApproxMatchesExactRunningExample(t *testing.T) {
	g, ids := paperExample()
	D := demand.NewMatrix(g.NumNodes())
	D.Set(ids["s1"], ids["t"], 2)
	D.Set(ids["s2"], ids["t"], 1)
	dags := dagx.BuildAll(g, dagx.Augmented)
	exact, _, err := MinMLUExact(g, dags, D)
	if err != nil {
		t.Fatal(err)
	}
	approx, flows, err := MinMLUApprox(g, dags, D, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if approx < exact-1e-6 {
		t.Fatalf("approx %g below exact optimum %g", approx, exact)
	}
	if approx > exact*1.25 {
		t.Fatalf("approx %g too far above exact %g", approx, exact)
	}
	// The returned flow must route the demand: conservation at s1 toward t.
	out := 0.0
	for _, id := range g.Out(ids["s1"]) {
		out += flows[ids["t"]][id]
	}
	for _, id := range g.In(ids["s1"]) {
		out -= flows[ids["t"]][id]
	}
	if math.Abs(out-2) > 1e-6 {
		t.Fatalf("approx flow: net outflow at s1 = %g, want 2", out)
	}
}

func randomInstance(seed int64, maxN int) (*graph.Graph, *demand.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(maxN-3)
	g := graph.New()
	g.AddNodes(n)
	for i := 0; i < n; i++ {
		g.AddLink(graph.NodeID(i), graph.NodeID((i+1)%n), 1+rng.Float64()*9, 1+float64(rng.Intn(4)))
	}
	for i := 0; i < n/2; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddLink(graph.NodeID(a), graph.NodeID(b), 1+rng.Float64()*9, 1+float64(rng.Intn(4)))
		}
	}
	D := demand.NewMatrix(n)
	pairs := 2 + rng.Intn(2*n)
	for i := 0; i < pairs; i++ {
		s, t := rng.Intn(n), rng.Intn(n)
		if s != t {
			D.Set(graph.NodeID(s), graph.NodeID(t), rng.Float64()*4)
		}
	}
	return g, D
}

// Property: on augmented DAGs the FPTAS never beats the exact optimum over
// the same DAGs and stays within its guarantee band, and its flows conserve
// D and carry nothing off the DAGs' member edges.
func TestPropertyApproxVsExact(t *testing.T) {
	f := func(seed int64) bool {
		g, D := randomInstance(seed, 8)
		if D.Total() == 0 {
			return true
		}
		dags := dagx.BuildAll(g, dagx.Augmented)
		exact, _, err := MinMLUExact(g, dags, D)
		if err != nil {
			return true // skip pathological
		}
		approx, flows, err := MinMLUApprox(g, dags, D, 0.05)
		if err != nil {
			return false
		}
		if err := checkFlows(g, dags, D, flows, 1e-9); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if exact == 0 {
			return approx < 1e-9
		}
		return approx >= exact-1e-6 && approx <= exact*1.3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// checkFlows reports the first way flows fails to route D inside dags: a
// row for a destination without demand (or none for one with demand),
// flow on an edge outside the destination's DAG, or a node whose net
// outflow toward a destination misses its demand by more than tol times
// the column total (the destination absorbing the whole column).
func checkFlows(g *graph.Graph, dags []*dagx.DAG, D *demand.Matrix, flows [][]float64, tol float64) error {
	n := g.NumNodes()
	for dst := 0; dst < n; dst++ {
		col := D.ToDestination(graph.NodeID(dst))
		total := 0.0
		for s, d := range col {
			if s != dst {
				total += d
			}
		}
		row := flows[dst]
		if (row == nil) != (total == 0) {
			return fmt.Errorf("destination %d: flow row present %v, column total %v", dst, row != nil, total)
		}
		if row == nil {
			continue
		}
		for e, fl := range row {
			if fl != 0 && !dags[dst].Member[e] {
				return fmt.Errorf("destination %d: flow %v on edge %d outside its DAG", dst, fl, e)
			}
		}
		for u := 0; u < n; u++ {
			net := 0.0
			for _, id := range g.Out(graph.NodeID(u)) {
				net += row[id]
			}
			for _, id := range g.In(graph.NodeID(u)) {
				net -= row[id]
			}
			want := col[u]
			if u == dst {
				want = -total
			}
			if math.Abs(net-want) > tol*total {
				return fmt.Errorf("destination %d: node %d net outflow %v, want %v", dst, u, net, want)
			}
		}
	}
	return nil
}

// Property: DAG-restricted optimum is never better than the unrestricted
// optimum, and flows stay within the DAGs.
func TestPropertyDAGRestrictionMonotone(t *testing.T) {
	f := func(seed int64) bool {
		g, D := randomInstance(seed, 8)
		if D.Total() == 0 {
			return true
		}
		dags := dagx.BuildAll(g, dagx.Augmented)
		free, _, err1 := MinMLUExact(g, nil, D)
		restr, flows, err2 := MinMLUExact(g, dags, D)
		if err1 != nil || err2 != nil {
			return true
		}
		if restr < free-1e-6 {
			return false
		}
		for tt := range flows {
			if flows[tt] == nil {
				continue
			}
			for e, fl := range flows[tt] {
				if fl > 1e-9 && !dags[tt].Member[e] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExactMedium(b *testing.B) {
	g, D := randomInstance(42, 16)
	dags := dagx.BuildAll(g, dagx.Augmented)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MinMLUExact(g, dags, D); err != nil {
			b.Fatal(err)
		}
	}
}
