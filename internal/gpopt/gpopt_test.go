package gpopt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/pdrouting"
)

// fig1cSetup builds the Appendix B instance: Fig. 1a with unit capacities,
// the Fig. 1c DAG toward t, and the two extreme demand matrices
// D1 = (2,0), D2 = (0,2), both with OPTDAG = 1.
func fig1cSetup(t *testing.T) (*graph.Graph, map[string]graph.NodeID, []*dagx.DAG, []Scenario) {
	t.Helper()
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
	D1 := demand.NewMatrix(g.NumNodes())
	D1.Set(ids["s1"], ids["t"], 2)
	D2 := demand.NewMatrix(g.NumNodes())
	D2.Set(ids["s2"], ids["t"], 2)
	scenarios := []Scenario{NewScenario(g, D1, 1), NewScenario(g, D2, 1)}
	return g, ids, dags, scenarios
}

// TestGoldenRatio reproduces Appendix B: the optimal splitting ratios are
// φ(s1,s2) = φ(s2,t) = (√5−1)/2 and the worst-case utilization is √5−1.
func TestGoldenRatio(t *testing.T) {
	g, ids, dags, scenarios := fig1cSetup(t)
	o := New(g, dags, Config{Iters: 2500})
	obj := o.Run(scenarios)
	golden := (math.Sqrt(5) - 1) / 2
	if math.Abs(obj-2*golden) > 0.01 {
		t.Fatalf("optimized worst utilization = %g, want %g (√5−1)", obj, 2*golden)
	}
	r := o.Routing()
	es1s2, _ := g.FindEdge(ids["s1"], ids["s2"])
	es2t, _ := g.FindEdge(ids["s2"], ids["t"])
	if math.Abs(r.Phi[ids["t"]][es1s2]-golden) > 0.02 {
		t.Fatalf("φ(s1,s2) = %g, want %g", r.Phi[ids["t"]][es1s2], golden)
	}
	if math.Abs(r.Phi[ids["t"]][es2t]-golden) > 0.02 {
		t.Fatalf("φ(s2,t) = %g, want %g", r.Phi[ids["t"]][es2t], golden)
	}
}

func TestRoutingValidates(t *testing.T) {
	g, _, dags, scenarios := fig1cSetup(t)
	o := New(g, dags, Config{Iters: 50})
	o.Run(scenarios)
	if err := o.Routing().Validate(); err != nil {
		t.Fatalf("optimized routing invalid: %v", err)
	}
}

func TestObjectiveMatchesManualComputation(t *testing.T) {
	g, ids, dags, scenarios := fig1cSetup(t)
	r := pdrouting.Uniform(g, dags)
	// Manual: D1 = (2,0) with uniform split on the Fig. 1c DAG:
	// s1 sends 1 to s2, 1 to v; s2 splits its 1 into 1/2 + 1/2;
	// v gets 1 + 1/2 → (v,t) carries 3/2.
	// D2 = (0,2): s2 splits 1/1; (v,t) carries 1, (s2,t) carries 1.
	want := 1.5
	if got := Objective(r, scenarios); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Objective = %g, want %g", got, want)
	}
	_ = ids
}

func TestRunImprovesOverUniform(t *testing.T) {
	g, _, dags, scenarios := fig1cSetup(t)
	uniform := Objective(pdrouting.Uniform(g, dags), scenarios)
	o := New(g, dags, Config{Iters: 800})
	obj := o.Run(scenarios)
	if obj >= uniform {
		t.Fatalf("optimizer did not improve: %g >= uniform %g", obj, uniform)
	}
}

func TestWarmStartMonotone(t *testing.T) {
	g, _, dags, scenarios := fig1cSetup(t)
	o := New(g, dags, Config{Iters: 300})
	first := o.Run(scenarios)
	second := o.Run(scenarios)
	if second > first+0.05 {
		t.Fatalf("warm-started second run regressed: %g → %g", first, second)
	}
}

func TestEmptyScenarios(t *testing.T) {
	g, _, dags, _ := fig1cSetup(t)
	o := New(g, dags, Config{Iters: 10})
	if obj := o.Run(nil); obj != 0 {
		t.Fatalf("Run(nil) = %g, want 0", obj)
	}
}

// numericalLoss evaluates the true smoothed loss for finite-difference
// gradient checking.
func numericalLoss(o *Optimizer, scenarios []Scenario, tau float64) float64 {
	r := o.Routing()
	var utils []float64
	for _, sc := range scenarios {
		loads := make([]float64, r.G.NumEdges())
		for t, col := range sc.Cols {
			if col == nil {
				continue
			}
			lt := r.DestLoads(graph.NodeID(t), col)
			for e := range loads {
				loads[e] += lt[e]
			}
		}
		for e := range loads {
			utils = append(utils, loads[e]/(r.G.Edge(graph.EdgeID(e)).Capacity*sc.Norm))
		}
	}
	scaled := make([]float64, len(utils))
	mx := math.Inf(-1)
	for i, u := range utils {
		scaled[i] = u / tau
		if scaled[i] > mx {
			mx = scaled[i]
		}
	}
	s := 0.0
	for _, v := range scaled {
		s += math.Exp(v - mx)
	}
	return tau * (mx + math.Log(s))
}

// Property: the analytic θ-gradient matches finite differences. This is a
// white-box check of the forward/backward propagation through the DAG.
func TestPropertyGradientCheck(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(4)
		g := graph.New()
		g.AddNodes(n)
		for i := 0; i < n; i++ {
			g.AddLink(graph.NodeID(i), graph.NodeID((i+1)%n), 1+rng.Float64()*4, 1+float64(rng.Intn(3)))
		}
		for i := 0; i < n/2; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.AddLink(graph.NodeID(a), graph.NodeID(b), 1+rng.Float64()*4, 1+float64(rng.Intn(3)))
			}
		}
		dags := dagx.BuildAll(g, dagx.Augmented)
		D := demand.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.5 {
					D.Set(graph.NodeID(i), graph.NodeID(j), rng.Float64()*3)
				}
			}
		}
		if D.Total() == 0 {
			return true
		}
		scenarios := []Scenario{NewScenario(g, D, 1)}
		tau := 0.3

		o := New(g, dags, Config{Iters: 1})
		// Randomize θ a bit.
		for t := range o.theta {
			for e := range o.theta[t] {
				o.theta[t][e] += rng.NormFloat64() * 0.3
			}
		}

		// Analytic gradient: replicate one optimizer iteration's gradient
		// computation with the scalar reference step's passes (the
		// production step is pinned to them bit for bit).
		ref := newScalarStepper(o)
		phi := make([][]float64, n)
		grad := make([][]float64, n)
		for tt := 0; tt < n; tt++ {
			phi[tt] = make([]float64, g.NumEdges())
			grad[tt] = make([]float64, g.NumEdges())
		}
		r := o.Routing()
		for tt := 0; tt < n; tt++ {
			copy(phi[tt], r.Phi[tt])
		}
		gIn := make([]float64, n)
		// Forward pass collecting utils.
		var utils []float64
		type dl struct {
			t             int
			loads, inflow []float64
		}
		var dls []dl
		sc := scenarios[0]
		totalLoads := make([]float64, g.NumEdges())
		for tt := 0; tt < n; tt++ {
			if sc.Cols[tt] == nil {
				continue
			}
			loads := make([]float64, g.NumEdges())
			inflow := make([]float64, n)
			ref.forwardInto(tt, sc.Cols[tt], phi[tt], loads, inflow)
			dls = append(dls, dl{tt, loads, inflow})
			for e := range totalLoads {
				totalLoads[e] += loads[e]
			}
		}
		for e := 0; e < g.NumEdges(); e++ {
			utils = append(utils, totalLoads[e]/(g.Edge(graph.EdgeID(e)).Capacity*sc.Norm))
		}
		scaled := make([]float64, len(utils))
		for i, x := range utils {
			scaled[i] = x / tau
		}
		wNorm := softmax(scaled, nil)
		for e := range wNorm {
			wNorm[e] /= g.Edge(graph.EdgeID(e)).Capacity * sc.Norm
		}
		for _, d := range dls {
			ref.backward(d.t, phi[d.t], d.inflow, gIn, wNorm, grad[d.t])
		}

		// Pick a few random (t, node) softmax blocks and compare with
		// finite differences.
		for trial := 0; trial < 4; trial++ {
			tt := rng.Intn(n)
			u := rng.Intn(n)
			out := ref.outs[tt][u]
			if len(out) < 2 {
				continue
			}
			id := out[rng.Intn(len(out))]
			// Analytic dLoss/dθ via softmax Jacobian.
			dot := 0.0
			for _, e := range out {
				dot += grad[tt][e] * phi[tt][e]
			}
			analytic := phi[tt][id] * (grad[tt][id] - dot)
			// Finite difference.
			h := 1e-5
			o.theta[tt][id] += h
			up := numericalLoss(o, scenarios, tau)
			o.theta[tt][id] -= 2 * h
			down := numericalLoss(o, scenarios, tau)
			o.theta[tt][id] += h
			numeric := (up - down) / (2 * h)
			if math.Abs(analytic-numeric) > 1e-3*(1+math.Abs(numeric)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
