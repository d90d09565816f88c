package gpopt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/topo"
)

// denseScenarios draws count demand matrices with every pair positive, and
// a normalization in [0.5, 2.5), from a fixed seed.
func denseScenarios(g *graph.Graph, count int, seed int64) []Scenario {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	out := make([]Scenario, 0, count)
	for s := 0; s < count; s++ {
		D := demand.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					D.Set(graph.NodeID(i), graph.NodeID(j), 0.1+3*rng.Float64())
				}
			}
		}
		out = append(out, NewScenario(g, D, 0.5+2*rng.Float64()))
	}
	return out
}

// withoutDest returns a copy of the scenarios in which nobody sends to the
// given destinations.
func withoutDest(scenarios []Scenario, dests ...int) []Scenario {
	out := make([]Scenario, len(scenarios))
	for i, s := range scenarios {
		out[i] = Scenario{Cols: append([][]float64(nil), s.Cols...), Norm: s.Norm}
		for _, t := range dests {
			out[i].Cols[t] = nil
		}
	}
	return out
}

func sameBits(t *testing.T, label, what string, got, want [][]float64) {
	t.Helper()
	for d := range want {
		for e := range want[d] {
			if math.Float64bits(got[d][e]) != math.Float64bits(want[d][e]) {
				t.Fatalf("%s: %s[%d][%d] = %x (%g), scalar reference %x (%g)", label, what, d, e,
					math.Float64bits(got[d][e]), got[d][e], math.Float64bits(want[d][e]), want[d][e])
			}
		}
	}
}

// checkAgainstScalar runs the scenario sets in turn on o and on a scalar
// stepper cloned from it. After every Run θ, the Adam moments, the last
// step's φ-gradient and φ must equal the reference bit for bit, and Run's
// return value must be the true objective of the routing it left behind.
func checkAgainstScalar(t *testing.T, label string, o *Optimizer, sets ...[]Scenario) {
	t.Helper()
	ref := newScalarStepper(o)
	for i, set := range sets {
		label := fmt.Sprintf("%s, run %d (%d scenarios)", label, i, len(set))
		got := o.Run(set)
		ref.run(set, o.cfg.Iters)
		sameBits(t, label, "theta", o.theta, ref.theta)
		sameBits(t, label, "m", o.m, ref.m)
		sameBits(t, label, "v", o.v, ref.v)
		sameBits(t, label, "last step's grad", o.scratch.grad, ref.grad)
		if o.step != ref.step {
			t.Fatalf("%s: %d Adam steps, scalar reference %d", label, o.step, ref.step)
		}
		r := o.Routing()
		for d := range ref.phi {
			clear(ref.phi[d])
			ref.materialize(d)
		}
		sameBits(t, label, "phi", r.Phi, ref.phi)
		if want := Objective(r, set); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: Run returned %v, Objective(Routing) is %v", label, got, want)
		}
	}
}

// TestStepMatchesScalarReference pins the lane kernel against the scalar
// step on four topologies, at one worker and at four: on one optimizer
// across a scenario set that grows and then shrinks, and on one seeded by
// NewFromRouting.
func TestStepMatchesScalarReference(t *testing.T) {
	ba42, err := scen.Generate("ba", scen.Params{N: 42, M: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ring12, err := scen.Generate("ring", scen.Params{N: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"Geant", topo.MustLoad("Geant")},
		{"NSF", topo.MustLoad("NSF")},
		{"ba42", ba42},
		{"ring12", ring12},
	}
	for _, tc := range graphs {
		dags := dagx.BuildAll(tc.g, dagx.Augmented)
		all := denseScenarios(tc.g, 10, 42)
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%s workers %d", tc.name, workers)
			cfg := Config{Iters: 50, Workers: workers}

			o := New(tc.g, dags, cfg)
			checkAgainstScalar(t, label, o, all[:2], all[:6], all[:10], all[:7])

			seeded := NewFromRouting(tc.g, dags, cfg, o.Routing())
			checkAgainstScalar(t, label+" from NewFromRouting", seeded, all[1:5])
		}
	}
}

// TestStepEdgeCasesMatchScalarReference covers the inputs on which moving
// every scenario per edge visit could silently differ from moving one.
func TestStepEdgeCasesMatchScalarReference(t *testing.T) {
	geant := topo.MustLoad("Geant")
	dags := dagx.BuildAll(geant, dagx.Augmented)
	n := geant.NumNodes()
	dense := denseScenarios(geant, 4, 9)

	for _, workers := range []int{1, 4} {
		cfg := Config{Iters: 50, Workers: workers}

		// A φ that underflows to exactly 0 starves node v in the lane where v
		// sends nothing itself, so the backward pass must skip v there — and
		// only there: in the other lane v has demand of its own. Not skipping
		// shows in the gradient of the starved edges alone, and only while τ
		// is large enough for the idle lane's weight to register: hence the
		// one-step Run first.
		t.Run(fmt.Sprintf("underflow/workers=%d", workers), func(t *testing.T) {
			g, ids, figDags, _ := fig1cSetup(t)
			D1 := demand.NewMatrix(g.NumNodes())
			D1.Set(ids["s1"], ids["t"], 2)
			D2 := demand.NewMatrix(g.NumNodes())
			D2.Set(ids["s1"], ids["t"], 1)
			D2.Set(ids["v"], ids["t"], 1)
			o := New(g, figDags, Config{Iters: 1, Workers: workers})
			for _, tail := range []string{"s1", "s2"} {
				id, _ := g.FindEdge(ids[tail], ids["v"])
				o.theta[ids["t"]][id] -= 800
				if phi := o.Routing().Phi[ids["t"]][id]; phi != 0 {
					t.Fatalf("a θ gap of 800 left φ(%s,v) = %g, want exactly 0", tail, phi)
				}
			}
			set := []Scenario{NewScenario(g, D1, 1), NewScenario(g, D2, 1)}
			checkAgainstScalar(t, "underflow, one step", o, set)
			o.SetConfig(cfg)
			checkAgainstScalar(t, "underflow", o, set)
		})

		// A scenario that sends nothing to some destinations beside one that does.
		t.Run(fmt.Sprintf("nil-columns/workers=%d", workers), func(t *testing.T) {
			set := append(withoutDest(dense[:2], 3, 5), dense[2:]...)
			checkAgainstScalar(t, "nil columns", New(geant, dags, cfg), set)
		})

		// A destination that loses all its demand between two Runs: its
		// gradient is zero from then on, but its moments keep decaying and
		// its θ keeps drifting.
		t.Run(fmt.Sprintf("destination-goes-idle/workers=%d", workers), func(t *testing.T) {
			o := New(geant, dags, cfg)
			o.Run(dense)
			before := append([]float64(nil), o.theta[2]...)
			checkAgainstScalar(t, "idle destination", o, withoutDest(dense, 2))
			drifted := false
			for e := range before {
				drifted = drifted || before[e] != o.theta[2][e]
			}
			if !drifted {
				t.Fatal("θ of the idle destination did not move: the test no longer covers live Adam decay")
			}
		})

		// Demand columns with a single source each: most of every DAG
		// carries nothing in that lane.
		t.Run(fmt.Sprintf("empty-subtrees/workers=%d", workers), func(t *testing.T) {
			D := demand.NewMatrix(n)
			for d := 0; d < n; d++ {
				D.Set(graph.NodeID((d+1)%n), graph.NodeID(d), 1+float64(d%3))
			}
			set := []Scenario{dense[0], NewScenario(geant, D, 0.7), dense[1]}
			checkAgainstScalar(t, "empty subtrees", New(geant, dags, cfg), set)
		})
	}
}
