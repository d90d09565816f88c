package localsearch

import (
	"errors"
	"math"
	"testing"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/topo"
)

// bottleneckGraph: two parallel routes between a and d; the direct route
// has a thin link, the detour is fat. Inverse-capacity weights already
// prefer the fat path, so we craft demands that overload whichever single
// path ECMP picks; local search should spread weights to improve.
func bottleneckGraph() *graph.Graph {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	g.AddLink(a, b, 1, 1)
	g.AddLink(b, d, 1, 1)
	g.AddLink(a, c, 1, 1)
	g.AddLink(c, d, 1, 1)
	return g
}

func TestOptimizeImprovesOrMatchesInitial(t *testing.T) {
	g := bottleneckGraph()
	base := demand.NewMatrix(g.NumNodes())
	a, _ := g.NodeByName("a")
	d, _ := g.NodeByName("d")
	base.Set(a, d, 2)
	box := demand.MarginBox(base, 2)

	res, err := Optimize(g, box, Config{OuterIters: 3, InnerMoves: 30, Seed: 1})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if len(res.Weights) != g.NumEdges() {
		t.Fatalf("got %d weights, want %d", len(res.Weights), g.NumEdges())
	}
	for _, w := range res.Weights {
		if w < 1 {
			t.Fatalf("weight %g below 1", w)
		}
	}
	if res.Rounds < 1 {
		t.Fatal("no rounds executed")
	}
	if len(res.CriticalDMs) == 0 {
		t.Fatal("no critical demand matrices accumulated")
	}
	// With symmetric unit capacities the optimum splits a→d evenly: worst
	// utilization 4/2/1 = 2 (max demand 4 split over two unit paths).
	if res.WorstUtil > 4.0+1e-9 {
		t.Fatalf("worst utilization %g should not exceed single-path 4", res.WorstUtil)
	}
}

func TestOptimizeDoesNotMutateInput(t *testing.T) {
	g := bottleneckGraph()
	before := g.Weights()
	base := demand.NewMatrix(g.NumNodes())
	a, _ := g.NodeByName("a")
	d, _ := g.NodeByName("d")
	base.Set(a, d, 1)
	if _, err := Optimize(g, demand.MarginBox(base, 2), Config{OuterIters: 2, InnerMoves: 10, Seed: 2}); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	after := g.Weights()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("Optimize mutated the input graph's weights")
		}
	}
}

func TestOptimizeOnCorpusTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus local search in -short mode")
	}
	g := topo.MustLoad("NSF")
	base := demand.Gravity(g, 1)
	box := demand.MarginBox(base, 2)
	res, err := Optimize(g, box, Config{OuterIters: 3, InnerMoves: 25, Seed: 3})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.WorstUtil <= 0 {
		t.Fatalf("worst utilization %g should be positive", res.WorstUtil)
	}
	// Critical set accumulates at most one DM per round.
	if len(res.CriticalDMs) > res.Rounds {
		t.Fatalf("%d critical DMs exceed %d rounds", len(res.CriticalDMs), res.Rounds)
	}
}

// TestOptimizeRejectsDegenerateInputs is the regression matrix for the
// crash class fixed in PR 10: a single-node graph, an edgeless graph
// (rng.Intn(0) panic in the move loop), a non-finite capacity (the
// INVERSECAPACITY weight maxCap/c_e becomes NaN and poisons every SPF),
// a nil box, and a box of the wrong dimension. graph.AddEdge forbids
// zero and NaN capacities at construction time, so the capacity row uses
// +Inf — the only non-finite value constructible through the public API,
// and it hits the same maxCap/c_e division.
func TestOptimizeRejectsDegenerateInputs(t *testing.T) {
	box2 := func(n int) *demand.Box {
		return demand.MarginBox(demand.NewMatrix(n), 2)
	}

	singleNode := graph.New()
	singleNode.AddNode("only")

	edgeless := graph.New()
	edgeless.AddNode("a")
	edgeless.AddNode("b")

	infCap := graph.New()
	ia := infCap.AddNode("a")
	ib := infCap.AddNode("b")
	infCap.AddLink(ia, ib, 1, 1)
	infCap.AddEdge(ia, ib, math.Inf(1), 1)

	ok := graph.New()
	oa := ok.AddNode("a")
	ob := ok.AddNode("b")
	ok.AddLink(oa, ob, 1, 1)

	cases := []struct {
		name string
		g    *graph.Graph
		box  *demand.Box
	}{
		{"single-node graph", singleNode, box2(1)},
		{"edgeless graph", edgeless, box2(2)},
		{"infinite capacity", infCap, box2(2)},
		{"nil box", ok, nil},
		{"mismatched box dimension", ok, box2(5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Optimize(tc.g, tc.box, Config{OuterIters: 2, InnerMoves: 5, Seed: 1})
			if err == nil {
				t.Fatalf("Optimize accepted degenerate input, got %+v", res)
			}
			if !errors.Is(err, ErrInvalidInput) {
				t.Fatalf("error %v is not ErrInvalidInput", err)
			}
		})
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	g := bottleneckGraph()
	base := demand.NewMatrix(g.NumNodes())
	a, _ := g.NodeByName("a")
	d, _ := g.NodeByName("d")
	base.Set(a, d, 2)
	box := demand.MarginBox(base, 2)
	r1, err1 := Optimize(g, box, Config{OuterIters: 3, InnerMoves: 20, Seed: 9})
	r2, err2 := Optimize(g, box, Config{OuterIters: 3, InnerMoves: 20, Seed: 9})
	if err1 != nil || err2 != nil {
		t.Fatalf("Optimize: %v / %v", err1, err2)
	}
	for i := range r1.Weights {
		if r1.Weights[i] != r2.Weights[i] {
			t.Fatal("same seed produced different weights")
		}
	}
}

// TestReweightIsOptimizeAtTenMovesPerEdge: Reweight is Optimize with 10·|E|
// inner moves, applied to a copy of the graph; the input keeps its weights.
func TestReweightIsOptimizeAtTenMovesPerEdge(t *testing.T) {
	g := topo.MustLoad("Abilene")
	before := g.Weights()
	box := demand.MarginBox(demand.Gravity(g, 1), 2)
	tuned, err := Reweight(g, box, 2, 4)
	if err != nil {
		t.Fatalf("Reweight: %v", err)
	}
	want, err := Optimize(g, box, Config{OuterIters: 2, InnerMoves: 10 * g.NumEdges(), Seed: 4})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	got, after := tuned.Weights(), g.Weights()
	for i := range want.Weights {
		if got[i] != want.Weights[i] {
			t.Fatalf("edge %d: tuned weight %v, Optimize %v", i, got[i], want.Weights[i])
		}
		if after[i] != before[i] {
			t.Fatal("Reweight mutated the input graph's weights")
		}
	}
}
