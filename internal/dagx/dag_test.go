package dagx

import (
	"math/rand"
	"testing"
	"testing/quick"

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

func TestShortestPathDAGRunningExample(t *testing.T) {
	g, ids := paperExample()
	d := ShortestPath(g, ids["t"])
	if d.NumEdges() != 4 {
		t.Fatalf("SP DAG should have 4 edges, got %d", d.NumEdges())
	}
}

// The paper's running example: augmenting the DAG rooted at t adds link
// (s2,v) in one direction. s2 and v are both at distance 1, so the tie
// breaks lexicographically: s2 (id 1) < v (id 2), hence v -> s2... the edge
// is oriented toward the smaller (dist, id), i.e. from v to s2.
func TestAugmentedDAGAddsTiedLink(t *testing.T) {
	g, ids := paperExample()
	d := Augmented(g, ids["t"])
	if d.NumEdges() != 5 {
		t.Fatalf("augmented DAG should have 5 edges, got %d", d.NumEdges())
	}
	vs2, ok := g.FindEdge(ids["v"], ids["s2"])
	if !ok {
		t.Fatal("edge v->s2 must exist")
	}
	s2v, _ := g.FindEdge(ids["s2"], ids["v"])
	if !d.Member[vs2] {
		t.Fatal("augmentation should orient the tied link from v (id 2) to s2 (id 1)")
	}
	if d.Member[s2v] {
		t.Fatal("augmentation must not include both directions of a link")
	}
}

func TestAugmentedContainsShortestPath(t *testing.T) {
	g, ids := paperExample()
	d := Augmented(g, ids["t"])
	if !d.ContainsShortestPathDAG(g) {
		t.Fatal("augmented DAG must contain the SP DAG (COYOTE's no-worse-than-ECMP guarantee)")
	}
}

func TestTopologicalOrderValid(t *testing.T) {
	g, ids := paperExample()
	d := Augmented(g, ids["t"])
	pos := make(map[graph.NodeID]int)
	for i, u := range d.Order {
		pos[u] = i
	}
	for _, e := range g.Edges() {
		if d.Member[e.ID] && pos[e.From] >= pos[e.To] {
			t.Fatalf("edge %d->%d violates topological order", e.From, e.To)
		}
	}
	if d.Order[len(d.Order)-1] != ids["t"] && d.Dist[d.Order[len(d.Order)-1]] != 0 {
		// t must be last among nodes that have DAG edges into them; with all
		// nodes reachable t is a sink.
		t.Fatalf("destination should be the final sink, order = %v", d.Order)
	}
}

func TestFromEdgesRejectsCycle(t *testing.T) {
	g, ids := paperExample()
	member := make([]bool, g.NumEdges())
	e1, _ := g.FindEdge(ids["s1"], ids["s2"])
	e2, _ := g.FindEdge(ids["s2"], ids["s1"])
	member[e1], member[e2] = true, true
	if _, err := FromEdges(g, ids["t"], member); err == nil {
		t.Fatal("FromEdges should reject a 2-cycle")
	}
}

func TestFromEdgesAcceptsValidDAG(t *testing.T) {
	g, ids := paperExample()
	d := Augmented(g, ids["t"])
	d2, err := FromEdges(g, ids["t"], d.Member)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if d2.NumEdges() != d.NumEdges() {
		t.Fatal("FromEdges changed edge count")
	}
}

func TestFromEdgesLengthMismatch(t *testing.T) {
	g, ids := paperExample()
	if _, err := FromEdges(g, ids["t"], make([]bool, 3)); err == nil {
		t.Fatal("FromEdges should reject wrong-length membership")
	}
}

func TestOutInEdges(t *testing.T) {
	g, ids := paperExample()
	d := Augmented(g, ids["t"])
	outS1 := d.OutEdges(g, ids["s1"])
	if len(outS1) != 2 {
		t.Fatalf("s1 should have 2 DAG out-edges, got %d", len(outS1))
	}
	inT := 0
	for _, id := range g.In(ids["t"]) {
		if d.Member[id] {
			inT++
		}
	}
	if inT != 2 {
		t.Fatalf("t should have 2 DAG in-edges, got %d", inT)
	}
	if len(d.OutEdges(g, ids["t"])) != 0 {
		t.Fatal("destination must have no DAG out-edges")
	}
}

func randomGraph(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New()
	g.AddNodes(n)
	for i := 0; i < n; i++ {
		g.AddLink(graph.NodeID(i), graph.NodeID((i+1)%n), 1+rng.Float64()*9, 1+float64(rng.Intn(4)))
	}
	for i := 0; i < n; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddLink(graph.NodeID(a), graph.NodeID(b), 1+rng.Float64()*9, 1+float64(rng.Intn(4)))
		}
	}
	return g
}

// Property: augmented DAGs are always acyclic, contain the SP DAG, and use
// every link between reachable nodes in exactly one direction.
func TestPropertyAugmentedDAGInvariants(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 3 + int(sz%12)
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, n)
		dst := graph.NodeID(rng.Intn(n))
		d := Augmented(g, dst)
		// Acyclicity is implied by topoOrder not panicking, but verify the
		// order is consistent anyway.
		pos := make([]int, n)
		for i, u := range d.Order {
			pos[u] = i
		}
		for _, e := range g.Edges() {
			if d.Member[e.ID] && pos[e.From] >= pos[e.To] {
				return false
			}
		}
		if !d.ContainsShortestPathDAG(g) {
			return false
		}
		// Each bidirectional link used in at most one direction, and at
		// least one if both endpoints are reachable.
		for _, e := range g.Edges() {
			if e.Reverse < 0 || e.ID > e.Reverse {
				continue
			}
			fwd, bwd := d.Member[e.ID], d.Member[e.Reverse]
			if fwd && bwd {
				return false
			}
			if !fwd && !bwd {
				return false // ring construction keeps everything reachable
			}
		}
		// Destination has no out-edges.
		if len(d.OutEdges(g, dst)) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: every non-destination node has at least one out-edge in the
// augmented DAG (traffic never gets stuck).
func TestPropertyEveryNodeHasOutEdge(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 3 + int(sz%12)
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, n)
		dst := graph.NodeID(rng.Intn(n))
		d := Augmented(g, dst)
		for u := 0; u < n; u++ {
			if graph.NodeID(u) == dst {
				continue
			}
			if len(d.OutEdges(g, graph.NodeID(u))) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
