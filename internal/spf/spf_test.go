package spf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/topo"
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
	hops := tree.AppendNextHops(nil, g, ids["s1"])
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
	if hops := tree.AppendNextHops(nil, g, ids["t"]); hops != nil {
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
	if hops := tree.AppendNextHops(nil, g, c); hops != nil {
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
			hops := tree.AppendNextHops(nil, g, uid)
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

// TestPropertyUnaffectedByKeepsTree changes every directed edge of the
// corpus topologies and a seeded Barabási–Albert graph by ×¼, ×½, ×2 and ×4,
// under their own weights and under seeded integer weights 1..8. Wherever
// UnaffectedBy says a destination is unaffected, a cold ToDestination after
// the change must give the same Dist bits and the same ShortestPathEdges.
func TestPropertyUnaffectedByKeepsTree(t *testing.T) {
	ba, err := scen.Generate("ba", scen.Params{N: 24, M: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{"ba-24": ba}
	for _, name := range []string{"Abilene", "NSF", "Geant"} {
		graphs[name] = topo.MustLoad(name)
	}
	rng := rand.New(rand.NewSource(11))
	for name, g := range graphs {
		reweighted := g.Clone()
		for _, e := range g.Edges() {
			reweighted.SetWeight(e.ID, float64(1+rng.Intn(8)))
		}
		for _, g := range []*graph.Graph{g, reweighted} {
			unaffected, checked := 0, 0
			trees := AllDestinations(g)
			for _, e := range g.Edges() {
				for _, f := range []float64{0.25, 0.5, 2, 4} {
					w := e.Weight * f
					moved := g.Clone()
					moved.SetWeight(e.ID, w)
					for _, tr := range trees {
						checked++
						if !tr.UnaffectedBy(e, w) {
							continue
						}
						unaffected++
						cold := ToDestination(moved, tr.Dst)
						for u := range cold.Dist {
							if math.Float64bits(cold.Dist[u]) != math.Float64bits(tr.Dist[u]) {
								t.Fatalf("%s: edge %d ×%v, dst %d: Dist[%d] %v, cold %v", name, e.ID, f, tr.Dst, u, tr.Dist[u], cold.Dist[u])
							}
						}
						before, after := tr.ShortestPathEdges(g), cold.ShortestPathEdges(moved)
						for id := range before {
							if before[id] != after[id] {
								t.Fatalf("%s: edge %d ×%v, dst %d: edge %d membership %v → %v", name, e.ID, f, tr.Dst, id, before[id], after[id])
							}
						}
					}
				}
			}
			if unaffected == 0 || unaffected == checked {
				t.Fatalf("%s: %d of %d changes unaffected; the property is vacuous", name, unaffected, checked)
			}
		}
	}
}

// TestUnaffectedByEdgeCases pins the cases the corpus sweep cannot reach:
// a new weight that puts an off-path edge within the OnShortestPath margin
// of a tie is affecting, an edge into a node that cannot reach the
// destination is unaffected, and a reachable head under an unreachable tail
// is affected.
func TestUnaffectedByEdgeCases(t *testing.T) {
	tri := graph.New()
	x, y, z := tri.AddNode("x"), tri.AddNode("y"), tri.AddNode("z")
	tri.AddEdge(x, y, 1, 1)
	tri.AddEdge(y, z, 1, 1)
	xz := tri.Edge(tri.AddEdge(x, z, 1, 3)) // off path: Dist[x] = 2
	toZ := ToDestination(tri, z)
	for _, w := range []float64{2 + 1e-12, 2, 1.5} {
		if toZ.UnaffectedBy(xz, w) {
			t.Fatalf("x→z at weight %v ties or beats Dist[x] = 2, reported unaffected", w)
		}
	}
	if !toZ.UnaffectedBy(xz, 2.5) {
		t.Fatal("x→z at weight 2.5 stays off every shortest path, reported affected")
	}

	g := graph.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	ab := g.AddEdge(a, b, 1, 1)
	tr := ToDestination(g, b)
	if tr.UnaffectedBy(g.Edge(ab), 4) {
		t.Fatal("the only path's edge reported unaffected")
	}
	ca := g.AddEdge(c, a, 1, 1)
	toC := ToDestination(g, c) // nothing reaches c
	if !toC.UnaffectedBy(g.Edge(ca), 7) {
		t.Fatal("an edge into a node that cannot reach the destination reported affected")
	}
	inconsistent := FromDist(b, []float64{Inf, 0, Inf})
	if inconsistent.UnaffectedBy(g.Edge(ab), 5) {
		t.Fatal("an unreachable tail over a reachable head reported unaffected")
	}
}
