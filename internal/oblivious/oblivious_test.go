package oblivious

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/maxflow"
	"github.com/coyote-te/coyote/internal/mcf"
	"github.com/coyote-te/coyote/internal/pdrouting"
)

// fig1Graph builds the running example (Fig. 1a, unit capacities/weights).
func fig1Graph() (*graph.Graph, map[string]graph.NodeID) {
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

// fig1cDAGs returns DAGs where destination t uses the Fig. 1c DAG.
func fig1cDAGs(t *testing.T, g *graph.Graph, ids map[string]graph.NodeID) []*dagx.DAG {
	t.Helper()
	member := make([]bool, g.NumEdges())
	for _, pair := range [][2]string{{"s1", "s2"}, {"s1", "v"}, {"s2", "v"}, {"s2", "t"}, {"v", "t"}} {
		id, ok := g.FindEdge(ids[pair[0]], ids[pair[1]])
		if !ok {
			t.Fatalf("missing edge %v", pair)
		}
		member[id] = true
	}
	fig1c, err := dagx.FromEdges(g, ids["t"], member)
	if err != nil {
		t.Fatal(err)
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	dags[ids["t"]] = fig1c
	return dags
}

// goldenRouting installs the Appendix B optimum on the Fig. 1c DAG.
func goldenRouting(t *testing.T, g *graph.Graph, ids map[string]graph.NodeID, dags []*dagx.DAG) *pdrouting.Routing {
	t.Helper()
	golden := (math.Sqrt(5) - 1) / 2
	r := pdrouting.Uniform(g, dags)
	es1s2, _ := g.FindEdge(ids["s1"], ids["s2"])
	es1v, _ := g.FindEdge(ids["s1"], ids["v"])
	es2t, _ := g.FindEdge(ids["s2"], ids["t"])
	es2v, _ := g.FindEdge(ids["s2"], ids["v"])
	evt, _ := g.FindEdge(ids["v"], ids["t"])
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(r.SetRatios(ids["t"], ids["s1"], map[graph.EdgeID]float64{es1s2: golden, es1v: 1 - golden}))
	must(r.SetRatios(ids["t"], ids["s2"], map[graph.EdgeID]float64{es2t: golden, es2v: 1 - golden}))
	must(r.SetRatios(ids["t"], ids["v"], map[graph.EdgeID]float64{evt: 1}))
	return r
}

// box02 is the running example's uncertainty set: each user sends 0–2 units.
func box02(g *graph.Graph, ids map[string]graph.NodeID) *demand.Box {
	min := demand.NewMatrix(g.NumNodes())
	max := demand.NewMatrix(g.NumNodes())
	max.Set(ids["s1"], ids["t"], 2)
	max.Set(ids["s2"], ids["t"], 2)
	return demand.NewBox(min, max)
}

// TestGoldenRoutingPerf verifies Appendix B end to end: the golden-ratio
// routing's worst-case normalized utilization over the box is √5−1 ≈ 1.236.
func TestGoldenRoutingPerf(t *testing.T) {
	g, ids := fig1Graph()
	dags := fig1cDAGs(t, g, ids)
	r := goldenRouting(t, g, ids, dags)
	ev := NewEvaluator(g, dags, box02(g, ids), EvalConfig{Samples: 16, Seed: 1})
	res := ev.Perf(r)
	want := math.Sqrt(5) - 1
	if math.Abs(res.Ratio-want) > 0.01 {
		t.Fatalf("Perf = %g, want %g", res.Ratio, want)
	}
}

// TestPerfExactMatchesSampling on the running example: the slave LP must
// agree with the corner adversary here (the worst case sits at a corner).
func TestPerfExactMatchesSampling(t *testing.T) {
	g, ids := fig1Graph()
	dags := fig1cDAGs(t, g, ids)
	r := goldenRouting(t, g, ids, dags)
	ev := NewEvaluator(g, dags, box02(g, ids), EvalConfig{Samples: 16, Seed: 1})
	approx := ev.Perf(r)
	exact, err := ev.PerfExact(r)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(5) - 1
	if math.Abs(exact.Ratio-want) > 1e-6 {
		t.Fatalf("PerfExact = %g, want %g", exact.Ratio, want)
	}
	if approx.Ratio > exact.Ratio+1e-6 {
		t.Fatalf("sampling adversary %g exceeds exact %g", approx.Ratio, exact.Ratio)
	}
}

// Property: the sampling adversary never exceeds the exact slave-LP value
// (it is a lower bound on PERF).
func TestPropertySamplingBelowExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(3)
		g := graph.New()
		g.AddNodes(n)
		for i := 0; i < n; i++ {
			g.AddLink(graph.NodeID(i), graph.NodeID((i+1)%n), 1+rng.Float64()*4, 1+float64(rng.Intn(3)))
		}
		g.AddLink(0, graph.NodeID(n/2), 1+rng.Float64()*4, 1+float64(rng.Intn(3)))
		dags := dagx.BuildAll(g, dagx.Augmented)
		base := demand.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.6 {
					base.Set(graph.NodeID(i), graph.NodeID(j), 0.2+rng.Float64()*2)
				}
			}
		}
		if base.Total() == 0 {
			return true
		}
		box := demand.MarginBox(base, 1+rng.Float64()*2)
		ev := NewEvaluator(g, dags, box, EvalConfig{Samples: 6, Seed: seed})
		r := pdrouting.Uniform(g, dags)
		approx := ev.Perf(r)
		exact, err := ev.PerfExact(r)
		if err != nil {
			return false
		}
		return approx.Ratio <= exact.Ratio+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestCoyoteBeatsECMPRunningExample: on the running example with the
// augmented DAGs, COYOTE's optimized splitting must strictly beat
// traditional ECMP (whose PERF is 1.5 via the (2,2) corner).
func TestCoyoteBeatsECMPRunningExample(t *testing.T) {
	g, ids := fig1Graph()
	dags := dagx.BuildAll(g, dagx.Augmented)
	box := box02(g, ids)
	ev := NewEvaluator(g, dags, box, EvalConfig{Samples: 16, Seed: 7})

	ecmp := ECMPOnDAGs(g, dags)
	ecmpPerf := ev.Perf(ecmp)
	if ecmpPerf.Ratio < 1.49 {
		t.Fatalf("ECMP PERF = %g, expected ≥ 1.5 on this instance", ecmpPerf.Ratio)
	}

	r, rep := ev.Optimize(Options{
		OptIters: 600,
		AdvIters: 4,
	})
	if err := r.Validate(); err != nil {
		t.Fatalf("COYOTE routing invalid: %v", err)
	}
	if rep.Perf.Ratio > ecmpPerf.Ratio+1e-9 {
		t.Fatalf("COYOTE PERF %g worse than ECMP %g", rep.Perf.Ratio, ecmpPerf.Ratio)
	}
	if rep.Perf.Ratio > 1.35 {
		t.Fatalf("COYOTE PERF = %g, want ≤ ~4/3 on the running example", rep.Perf.Ratio)
	}
}

// TestTheorem4PathLowerBound reproduces the Ω(n) negative result: on the
// n-source path with unit edges into t, any per-destination routing leaves
// some x_i whose traffic rides only (x_i, t); demand n from that source
// then drives utilization n while the unrestricted optimum is 1.
func TestTheorem4PathLowerBound(t *testing.T) {
	n := 6
	g := graph.New()
	xs := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		xs[i] = g.AddNodes(1)
	}
	tt := g.AddNodes(1)
	for i := 0; i+1 < n; i++ {
		g.AddLink(xs[i], xs[i+1], 1e9, 1)
	}
	for i := 0; i < n; i++ {
		g.AddEdge(xs[i], tt, 1, 1)
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	r := pdrouting.Uniform(g, dags)

	worst := 0.0
	for i := 0; i < n; i++ {
		D := demand.SinglePair(g.NumNodes(), xs[i], tt, float64(n))
		mxlu := r.MaxUtilization(D)
		// Unrestricted optimum: d / maxflow over the whole graph.
		opt := float64(n) / maxflow.MinCutValue(g, []graph.NodeID{xs[i]}, tt)
		if ratio := mxlu / opt; ratio > worst {
			worst = ratio
		}
	}
	if worst < float64(n)-1e-6 {
		t.Fatalf("path lower bound: worst ratio %g, want ≥ %d", worst, n)
	}
}

// TestECMPOnDAGsValidates checks that the baseline routing is a valid PD
// routing over augmented DAGs.
func TestECMPOnDAGsValidates(t *testing.T) {
	g, _ := fig1Graph()
	dags := dagx.BuildAll(g, dagx.Augmented)
	r := ECMPOnDAGs(g, dags)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBaseRoutingOptimalAtBase: the Base routing must be optimal for its
// own base matrix (ratio 1 at margin 1), the anchor every Table I row
// exhibits.
func TestBaseRoutingOptimalAtBase(t *testing.T) {
	g, ids := fig1Graph()
	dags := dagx.BuildAll(g, dagx.Augmented)
	base := demand.NewMatrix(g.NumNodes())
	base.Set(ids["s1"], ids["t"], 1)
	base.Set(ids["s2"], ids["t"], 0.5)
	r, err := BaseRouting(g, dags, base, 18, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(g, dags, demand.MarginBox(base, 1), EvalConfig{Samples: 4, Seed: 3})
	res := ev.Perf(r)
	if math.Abs(res.Ratio-1) > 0.02 {
		t.Fatalf("Base routing at margin 1: PERF = %g, want 1", res.Ratio)
	}
	var ee *mcf.EpsError
	if _, err := BaseRouting(g, dags, base, 18, 0.5); !errors.As(err, &ee) {
		t.Fatalf("BaseRouting with eps 0.5: error %v, want an *mcf.EpsError", err)
	}
}

// TestBaseDegradesWithMargin: the Base routing's PERF grows with the
// uncertainty margin (Figures 6–8's central observation).
func TestBaseDegradesWithMargin(t *testing.T) {
	g, ids := fig1Graph()
	dags := dagx.BuildAll(g, dagx.Augmented)
	base := demand.NewMatrix(g.NumNodes())
	base.Set(ids["s1"], ids["t"], 1)
	base.Set(ids["s2"], ids["t"], 1)
	base.Set(ids["s1"], ids["s2"], 0.3)
	r, err := BaseRouting(g, dags, base, 18, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	for i, margin := range []float64{1, 2, 3} {
		ev := NewEvaluator(g, dags, demand.MarginBox(base, margin), EvalConfig{Samples: 8, Seed: 3})
		res := ev.Perf(r)
		if i > 0 && res.Ratio < prev-1e-9 {
			t.Fatalf("Base PERF decreased with margin: %g → %g", prev, res.Ratio)
		}
		prev = res.Ratio
	}
	if prev < 1.05 {
		t.Fatalf("Base PERF at margin 3 = %g; expected visible degradation", prev)
	}
}

// TestOptDAGCaching ensures repeated OptDAG calls hit the cache.
func TestOptDAGCaching(t *testing.T) {
	g, ids := fig1Graph()
	dags := dagx.BuildAll(g, dagx.Augmented)
	ev := NewEvaluator(g, dags, box02(g, ids), EvalConfig{})
	D := demand.SinglePair(g.NumNodes(), ids["s1"], ids["t"], 2)
	a := ev.OptDAG(D)
	b := ev.OptDAG(D)
	if a != b {
		t.Fatalf("cache miss changed value: %g vs %g", a, b)
	}
	if len(ev.cache.opt) != 1 {
		t.Fatalf("cache has %d entries, want 1", len(ev.cache.opt))
	}
}
