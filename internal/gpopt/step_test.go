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
			starve := func(cfg Config) *Optimizer {
				o := New(g, figDags, cfg)
				for _, tail := range []string{"s1", "s2"} {
					id, _ := g.FindEdge(ids[tail], ids["v"])
					o.theta[ids["t"]][id] -= 800
					if phi := o.Routing().Phi[ids["t"]][id]; phi != 0 {
						t.Fatalf("a θ gap of 800 left φ(%s,v) = %g, want exactly 0", tail, phi)
					}
				}
				return o
			}
			starved, fed := NewScenario(g, D1, 1), NewScenario(g, D2, 1)
			o := starve(Config{Iters: 1, Workers: workers})
			set := []Scenario{starved, fed}
			checkAgainstScalar(t, "underflow, one step", o, set)
			o.SetConfig(cfg)
			checkAgainstScalar(t, "underflow", o, set)

			// The skip is per lane inside a block of four too: one starved
			// lane at each position of five.
			for k := 0; k < 5; k++ {
				set := []Scenario{fed, fed, fed, fed, fed}
				set[k] = starved
				checkAgainstScalar(t, fmt.Sprintf("underflow in lane %d of 5, one step", k), starve(Config{Iters: 1, Workers: workers}), set)
			}
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

		// Every length of the lane kernels' scalar tail, S mod 4, over a
		// full block and without one: S = 1…9 and 32. Every third lane is
		// a single-source matrix, so zero lanes sit at each position of a
		// block.
		t.Run(fmt.Sprintf("lane-counts/workers=%d", workers), func(t *testing.T) {
			lanes := denseScenarios(geant, 32, 5)
			for si := 1; si < len(lanes); si += 3 {
				D := demand.NewMatrix(n)
				for d := 0; d < n; d++ {
					D.Set(graph.NodeID((d+1+si%(n-1))%n), graph.NodeID(d), 1+float64(d%4))
				}
				lanes[si] = NewScenario(geant, D, 0.5+float64(si%5)/4)
			}
			for _, S := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 32} {
				checkAgainstScalar(t, fmt.Sprintf("S=%d", S), New(geant, dags, Config{Iters: 5, Workers: workers}), lanes[:S])
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

// FuzzStepMatchesReference pins the lane kernel against the scalar step on
// Abilene for any scenario count from 1 to 40 (every block and tail
// length), random demands with zero entries, zero columns and empty
// scenarios, and, when underflow is set, a node whose every in-edge with a
// sibling gets a θ gap of 800: φ underflows to exactly 0 there, which
// starves the node in the lanes where it sends nothing itself. A few steps
// on the set, then on its first half; θ, m, v, the last gradient and φ must
// equal the reference bit for bit at Workers 1 and 2.
func FuzzStepMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint64(0), false)
	f.Add(int64(2), uint8(4), uint64(0b1010), true)
	f.Add(int64(3), uint8(31), uint64(0xf0f0), true)
	f.Add(int64(4), uint8(38), ^uint64(0), false)
	g := topo.MustLoad("Abilene")
	dags := dagx.BuildAll(g, dagx.Augmented)
	n := g.NumNodes()
	f.Fuzz(func(t *testing.T, seed int64, lanes uint8, sparse uint64, underflow bool) {
		rng := rand.New(rand.NewSource(seed))
		S := 1 + int(lanes)%40
		set := make([]Scenario, S)
		for si := range set {
			D := demand.NewMatrix(n)
			// A sparse lane keeps a quarter of its pairs, and one in eight
			// of them keeps none.
			keep := 1.0
			if sparse>>(si%64)&1 == 1 {
				keep = 0.25
				if rng.Intn(8) == 0 {
					keep = 0
				}
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i != j && rng.Float64() < keep {
						D.Set(graph.NodeID(i), graph.NodeID(j), 0.1+3*rng.Float64())
					}
				}
			}
			set[si] = NewScenario(g, D, 0.5+2*rng.Float64())
		}
		dest, starved := rng.Intn(n), rng.Intn(n)
		iters := 1 + rng.Intn(4)
		for _, workers := range []int{1, 2} {
			o := New(g, dags, Config{Iters: iters, Workers: workers})
			if underflow && starved != dest {
				for i := range o.sweeps[dest].node {
					out := o.outs(dest, i)
					for _, id := range out {
						if len(out) > 1 && int(g.Edge(id).To) == starved {
							o.theta[dest][id] -= 800
						}
					}
				}
			}
			label := fmt.Sprintf("seed %d, S=%d, workers %d", seed, S, workers)
			checkAgainstScalar(t, label, o, set, set[:(S+1)/2])
		}
	})
}
