package spf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/coyote-te/coyote/internal/graph"
)

// paperExample builds the running example of Fig. 1a: sources s1, s2, relay
// v, target t, unit capacities, unit weights.
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

func TestDistancesRunningExample(t *testing.T) {
	g, ids := paperExample()
	tree := ToDestination(g, ids["t"])
	want := map[string]float64{"s1": 2, "s2": 1, "v": 1, "t": 0}
	for name, d := range want {
		if got := tree.Dist[ids[name]]; got != d {
			t.Errorf("dist[%s] = %g, want %g", name, got, d)
		}
	}
}

func TestNextHopsRunningExample(t *testing.T) {
	g, ids := paperExample()
	tree := ToDestination(g, ids["t"])
	hops := tree.NextHops(g, ids["s1"])
	if len(hops) != 2 {
		t.Fatalf("s1 should have 2 ECMP next-hops (via s2 and v), got %d", len(hops))
	}
	targets := map[graph.NodeID]bool{}
	for _, id := range hops {
		targets[g.Edge(id).To] = true
	}
	if !targets[ids["s2"]] || !targets[ids["v"]] {
		t.Fatalf("s1 next-hops should be s2 and v, got %v", targets)
	}
	if hops := tree.NextHops(g, ids["t"]); hops != nil {
		t.Fatalf("destination should have no next-hops, got %v", hops)
	}
}

func TestShortestPathEdgesMatchFig1b(t *testing.T) {
	g, ids := paperExample()
	tree := ToDestination(g, ids["t"])
	member := tree.ShortestPathEdges(g)
	// The SP DAG of Fig. 1b: s1->s2, s1->v, s2->t, v->t. Link (s2,v) is not
	// on any shortest path (both endpoints at distance 1 from t).
	onPath := 0
	for _, e := range g.Edges() {
		if member[e.ID] {
			onPath++
		}
	}
	if onPath != 4 {
		t.Fatalf("SP DAG should have 4 edges, got %d", onPath)
	}
	if e, ok := g.FindEdge(ids["s2"], ids["v"]); !ok || member[e] {
		t.Fatal("edge s2->v must not be on a shortest path to t")
	}
}

func TestUnreachable(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddEdge(a, b, 1, 1) // one-way; c isolated
	tree := ToDestination(g, b)
	if tree.Dist[a] != 1 {
		t.Fatalf("dist[a] = %g, want 1", tree.Dist[a])
	}
	if tree.Dist[c] != Inf {
		t.Fatalf("dist[c] should be Inf, got %g", tree.Dist[c])
	}
	if hops := tree.NextHops(g, c); hops != nil {
		t.Fatalf("unreachable node should have no next-hops, got %v", hops)
	}
}

func TestAllDestinations(t *testing.T) {
	g, _ := paperExample()
	trees := AllDestinations(g)
	if len(trees) != g.NumNodes() {
		t.Fatalf("got %d trees, want %d", len(trees), g.NumNodes())
	}
	for i, tr := range trees {
		if tr.Dst != graph.NodeID(i) {
			t.Fatalf("tree %d has Dst %d", i, tr.Dst)
		}
		if tr.Dist[i] != 0 {
			t.Fatalf("tree %d: self distance %g", i, tr.Dist[i])
		}
	}
}

func randomGraph(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New()
	g.AddNodes(n)
	for i := 0; i < n; i++ {
		g.AddLink(graph.NodeID(i), graph.NodeID((i+1)%n), 1+rng.Float64()*9, 1+float64(rng.Intn(5)))
	}
	for i := 0; i < n; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddLink(graph.NodeID(a), graph.NodeID(b), 1+rng.Float64()*9, 1+float64(rng.Intn(5)))
		}
	}
	return g
}

// Property: Dijkstra distances match Bellman-Ford distances.
func TestPropertyDijkstraMatchesBellmanFord(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 3 + int(sz%12)
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, n)
		dst := graph.NodeID(rng.Intn(n))
		tree := ToDestination(g, dst)
		// Bellman-Ford on reversed graph.
		bf := make([]float64, n)
		for i := range bf {
			bf[i] = Inf
		}
		bf[dst] = 0
		for iter := 0; iter < n; iter++ {
			for _, e := range g.Edges() {
				if bf[e.To] != Inf && e.Weight+bf[e.To] < bf[e.From] {
					bf[e.From] = e.Weight + bf[e.To]
				}
			}
		}
		for i := range bf {
			if math.Abs(bf[i]-tree.Dist[i]) > 1e-9 && !(bf[i] == Inf && tree.Dist[i] == Inf) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every non-destination reachable node has at least one next-hop,
// and following next-hops strictly decreases distance.
func TestPropertyNextHopsDecreaseDistance(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 3 + int(sz%12)
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, n)
		dst := graph.NodeID(rng.Intn(n))
		tree := ToDestination(g, dst)
		for u := 0; u < n; u++ {
			uid := graph.NodeID(u)
			if uid == dst || tree.Dist[u] == Inf {
				continue
			}
			hops := tree.NextHops(g, uid)
			if len(hops) == 0 {
				return false
			}
			for _, id := range hops {
				e := g.Edge(id)
				if tree.Dist[e.To] >= tree.Dist[u] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
