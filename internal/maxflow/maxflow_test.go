package maxflow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/coyote-te/coyote/internal/graph"
)

func TestSimplePath(t *testing.T) {
	net := NewNetwork(3)
	net.AddArc(0, 1, 5)
	net.AddArc(1, 2, 3)
	if f := net.MaxFlow(0, 2); math.Abs(f-3) > 1e-9 {
		t.Fatalf("flow = %g, want 3", f)
	}
}

func TestParallelPaths(t *testing.T) {
	net := NewNetwork(4)
	net.AddArc(0, 1, 2)
	net.AddArc(0, 2, 3)
	net.AddArc(1, 3, 4)
	net.AddArc(2, 3, 1)
	if f := net.MaxFlow(0, 3); math.Abs(f-3) > 1e-9 {
		t.Fatalf("flow = %g, want 3", f)
	}
}

func TestClassicCLRS(t *testing.T) {
	// CLRS figure 26.6 instance; max flow 23.
	net := NewNetwork(6)
	net.AddArc(0, 1, 16)
	net.AddArc(0, 2, 13)
	net.AddArc(1, 2, 10)
	net.AddArc(2, 1, 4)
	net.AddArc(1, 3, 12)
	net.AddArc(3, 2, 9)
	net.AddArc(2, 4, 14)
	net.AddArc(4, 3, 7)
	net.AddArc(3, 5, 20)
	net.AddArc(4, 5, 4)
	if f := net.MaxFlow(0, 5); math.Abs(f-23) > 1e-9 {
		t.Fatalf("flow = %g, want 23", f)
	}
}

func TestMinCutMatchesFlow(t *testing.T) {
	net := NewNetwork(4)
	net.AddArc(0, 1, 2)
	net.AddArc(0, 2, 3)
	net.AddArc(1, 3, 4)
	net.AddArc(2, 3, 1)
	v, side := net.MinCut(0, 3)
	if math.Abs(v-3) > 1e-9 {
		t.Fatalf("cut value = %g, want 3", v)
	}
	if !side[0] || side[3] {
		t.Fatalf("cut side wrong: %v", side)
	}
}

// integerGadget builds the paper's INTEGER gadget (Fig. 2) for weight w:
// s1→x1 (2w), s2→x2 (2w), bidirectional x1–x2, x1–m, x2–m each capacity w,
// and m→t capacity 2w. The gadget admits exactly 2w units from either
// source (Theorem 1's proof).
func integerGadget(g *graph.Graph, s1, s2, t graph.NodeID, i int, w float64) {
	x1 := g.AddNode(nodeName("x1", i))
	x2 := g.AddNode(nodeName("x2", i))
	m := g.AddNode(nodeName("m", i))
	g.AddLink(x1, x2, w, 1)
	g.AddLink(x1, m, w, 1)
	g.AddLink(x2, m, w, 1)
	g.AddEdge(s1, x1, 2*w, 1)
	g.AddEdge(s2, x2, 2*w, 1)
	g.AddEdge(m, t, 2*w, 1)
}

func nodeName(prefix string, i int) string {
	return prefix + "_" + string(rune('a'+i))
}

// TestIntegerGadgetMinCut verifies the structural claim in the proof of
// Theorem 1: mincut(s1,t) = mincut(s2,t) = mincut({s1,s2},t) = 2·SUM.
func TestIntegerGadgetMinCut(t *testing.T) {
	weights := []float64{3, 5, 8}
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	g := graph.New()
	s1 := g.AddNode("s1")
	s2 := g.AddNode("s2")
	tt := g.AddNode("t")
	for i, w := range weights {
		integerGadget(g, s1, s2, tt, i, w)
	}
	if got := MinCutValue(g, []graph.NodeID{s1}, tt); math.Abs(got-2*sum) > 1e-9 {
		t.Fatalf("mincut(s1,t) = %g, want %g", got, 2*sum)
	}
	if got := MinCutValue(g, []graph.NodeID{s2}, tt); math.Abs(got-2*sum) > 1e-9 {
		t.Fatalf("mincut(s2,t) = %g, want %g", got, 2*sum)
	}
	if got := MinCutValue(g, []graph.NodeID{s1, s2}, tt); math.Abs(got-2*sum) > 1e-9 {
		t.Fatalf("mincut({s1,s2},t) = %g, want %g", got, 2*sum)
	}
}

// Property: max-flow value equals min-cut capacity on random graphs.
func TestPropertyMaxFlowMinCut(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		build := func() *Network {
			net := NewNetwork(n)
			for i := 0; i < 3*n; i++ {
				a, b := rng.Intn(n), rng.Intn(n)
				if a != b {
					net.AddArc(a, b, float64(1+rng.Intn(10)))
				}
			}
			return net
		}
		// Build twice with the same stream by re-seeding.
		rngState := rng.Int63()
		rng1 := rand.New(rand.NewSource(rngState))
		rng2 := rand.New(rand.NewSource(rngState))
		_ = rng1
		_ = rng2
		net := build()
		// Copy of the network for cut-capacity evaluation.
		capOf := make([][]float64, n)
		for i := range capOf {
			capOf[i] = make([]float64, n)
		}
		for u := range net.adj {
			for _, a := range net.adj[u] {
				if a.cap > 0 {
					capOf[u][a.to] += a.cap
				}
			}
		}
		s, t2 := 0, n-1
		v, side := net.MinCut(s, t2)
		cut := 0.0
		for u := 0; u < n; u++ {
			for w := 0; w < n; w++ {
				if side[u] && !side[w] {
					cut += capOf[u][w]
				}
			}
		}
		return math.Abs(v-cut) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: flow is monotone in capacity scaling: doubling all capacities
// doubles the max flow.
func TestPropertyFlowScales(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		type e struct {
			a, b int
			c    float64
		}
		var edges []e
		for i := 0; i < 3*n; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				edges = append(edges, e{a, b, float64(1 + rng.Intn(10))})
			}
		}
		build := func(scale float64) *Network {
			net := NewNetwork(n)
			for _, ed := range edges {
				net.AddArc(ed.a, ed.b, ed.c*scale)
			}
			return net
		}
		f1 := build(1).MaxFlow(0, n-1)
		f2 := build(2).MaxFlow(0, n-1)
		return math.Abs(f2-2*f1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
