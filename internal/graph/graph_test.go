package graph

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func buildDiamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	g.AddLink(a, b, 10, 1)
	g.AddLink(a, c, 10, 1)
	g.AddLink(b, d, 10, 1)
	g.AddLink(c, d, 10, 1)
	return g
}

func TestAddNodeIdempotent(t *testing.T) {
	g := New()
	id1 := g.AddNode("x")
	id2 := g.AddNode("x")
	if id1 != id2 {
		t.Fatalf("AddNode not idempotent: %d vs %d", id1, id2)
	}
	if g.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", g.NumNodes())
	}
}

func TestAddLinkReverse(t *testing.T) {
	g := buildDiamond(t)
	for _, e := range g.Edges() {
		if e.Reverse < 0 {
			t.Fatalf("edge %d has no reverse", e.ID)
		}
		r := g.Edge(e.Reverse)
		if r.From != e.To || r.To != e.From {
			t.Fatalf("edge %d reverse mismatch", e.ID)
		}
		if r.Reverse != e.ID {
			t.Fatalf("reverse of reverse of %d is %d", e.ID, r.Reverse)
		}
	}
}

func TestOutInDegrees(t *testing.T) {
	g := buildDiamond(t)
	a, _ := g.NodeByName("a")
	d, _ := g.NodeByName("d")
	if len(g.Out(a)) != 2 || len(g.In(a)) != 2 {
		t.Fatalf("node a degrees out=%d in=%d, want 2/2", len(g.Out(a)), len(g.In(a)))
	}
	if len(g.Out(d)) != 2 || len(g.In(d)) != 2 {
		t.Fatalf("node d degrees out=%d in=%d, want 2/2", len(g.Out(d)), len(g.In(d)))
	}
}

func TestValidate(t *testing.T) {
	g := buildDiamond(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// An infinite weight passes AddLink but not Validate, which names the edge.
	c, _ := g.NodeByName("c")
	d, _ := g.NodeByName("d")
	g.AddLink(d, c, 10, math.Inf(1))
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "d→c") {
		t.Fatalf("Validate with an infinite weight on d→c: err = %v, want one naming d→c", err)
	}
}

func TestConnected(t *testing.T) {
	g := buildDiamond(t)
	if !g.Connected() {
		t.Fatal("diamond should be strongly connected")
	}
	h := New()
	h.AddNode("x")
	h.AddNode("y")
	if h.Connected() {
		t.Fatal("two isolated nodes should not be connected")
	}
	// One-way edge only: not strongly connected.
	x, _ := h.NodeByName("x")
	y, _ := h.NodeByName("y")
	h.AddEdge(x, y, 1, 1)
	if h.Connected() {
		t.Fatal("one-way pair should not be strongly connected")
	}
}

func TestSetWeightPanicsOnNonPositive(t *testing.T) {
	g := buildDiamond(t)
	defer func() {
		if recover() == nil {
			t.Fatal("SetWeight(0) should panic")
		}
	}()
	g.SetWeight(0, 0)
}

func TestAddEdgePanicsOnSelfLoop(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	defer func() {
		if recover() == nil {
			t.Fatal("self loop should panic")
		}
	}()
	g.AddEdge(a, a, 1, 1)
}

func TestClone(t *testing.T) {
	g := buildDiamond(t)
	c := g.Clone()
	c.SetWeight(0, 99)
	if g.Edge(0).Weight == 99 {
		t.Fatal("Clone should not share edge storage")
	}
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Fatal("Clone size mismatch")
	}
	if _, ok := c.NodeByName("a"); !ok {
		t.Fatal("Clone lost name index")
	}
}

func TestWeightsRoundTrip(t *testing.T) {
	g := buildDiamond(t)
	w := g.Weights()
	for i := range w {
		w[i] = float64(i + 1)
	}
	g.SetWeights(w)
	got := g.Weights()
	for i := range got {
		if got[i] != float64(i+1) {
			t.Fatalf("weight %d = %g, want %d", i, got[i], i+1)
		}
	}
}

func TestFindEdge(t *testing.T) {
	g := buildDiamond(t)
	a, _ := g.NodeByName("a")
	b, _ := g.NodeByName("b")
	d, _ := g.NodeByName("d")
	if _, ok := g.FindEdge(a, b); !ok {
		t.Fatal("edge a->b should exist")
	}
	if _, ok := g.FindEdge(a, d); ok {
		t.Fatal("edge a->d should not exist")
	}
}

func TestTextCodecRoundTrip(t *testing.T) {
	g := buildDiamond(t)
	var buf bytes.Buffer
	if err := g.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: %v vs %v", g2, g)
	}
	for i, e := range g.Edges() {
		e2 := g2.Edge(EdgeID(i))
		if e2.From != e.From || e2.To != e.To || e2.Capacity != e.Capacity || e2.Weight != e.Weight {
			t.Fatalf("edge %d differs after round trip: %+v vs %+v", i, e2, e)
		}
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"frob a b",
		"link a b 1 1",                 // unknown nodes
		"node a\nnode b\nlink a b x 1", // bad capacity
		"node a\nnode b\nlink a b 1",   // missing weight
		"node a\nnode b\nlink a b 0 1", // zero capacity
	}
	for _, src := range cases {
		if _, err := ReadText(strings.NewReader(src)); err == nil {
			t.Errorf("ReadText(%q) should fail", src)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := buildDiamond(t)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	s := buf.String()
	if !strings.Contains(s, `"a" -- "b"`) {
		t.Fatalf("DOT output missing edge: %s", s)
	}
}

// randomConnectedGraph builds a random strongly connected graph for property
// tests: a ring plus random chords.
func randomConnectedGraph(rng *rand.Rand, n int) *Graph {
	g := New()
	g.AddNodes(n)
	for i := 0; i < n; i++ {
		g.AddLink(NodeID(i), NodeID((i+1)%n), 1+rng.Float64()*9, 1+rng.Float64()*4)
	}
	extra := rng.Intn(2 * n)
	for i := 0; i < extra; i++ {
		a := NodeID(rng.Intn(n))
		b := NodeID(rng.Intn(n))
		if a == b {
			continue
		}
		g.AddLink(a, b, 1+rng.Float64()*9, 1+rng.Float64()*4)
	}
	return g
}

func TestPropertyRandomGraphsValidAndConnected(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 3 + int(sz%20)
		g := randomConnectedGraph(rand.New(rand.NewSource(seed)), n)
		return g.Validate() == nil && g.Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTextCodecRoundTrip(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 3 + int(sz%15)
		g := randomConnectedGraph(rand.New(rand.NewSource(seed)), n)
		var buf bytes.Buffer
		if err := g.WriteText(&buf); err != nil {
			return false
		}
		g2, err := ReadText(&buf)
		if err != nil {
			return false
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			return false
		}
		for i := range g.Edges() {
			a, b := g.Edge(EdgeID(i)), g2.Edge(EdgeID(i))
			if a.From != b.From || a.To != b.To || a.Capacity != b.Capacity || a.Weight != b.Weight {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWithoutLink(t *testing.T) {
	g := buildDiamond(t)
	links := g.Links()
	if len(links) != 4 {
		t.Fatalf("diamond has %d links, want 4", len(links))
	}
	h := g.WithoutLink(links[0])
	if h.NumEdges() != g.NumEdges()-2 {
		t.Fatalf("WithoutLink left %d edges, want %d", h.NumEdges(), g.NumEdges()-2)
	}
	if h.NumNodes() != g.NumNodes() {
		t.Fatal("WithoutLink must preserve nodes")
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate after removal: %v", err)
	}
	// Removing one diamond link keeps the graph connected.
	if !h.Connected() {
		t.Fatal("diamond minus one link should stay connected")
	}
}

func TestWithoutLinkDirected(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	e := g.AddEdge(a, b, 1, 1) // one-way
	g.AddEdge(b, a, 2, 3)      // independent one-way
	h := g.WithoutLink(e)
	if h.NumEdges() != 1 {
		t.Fatalf("%d edges left, want 1", h.NumEdges())
	}
	if h.Edge(0).Capacity != 2 {
		t.Fatal("wrong edge removed")
	}
}

// TestAddNodesAppends verifies AddNodes adds exactly n fresh vertices on
// any graph — including non-empty graphs whose existing names collide with
// the generated "v<k>" scheme, where the old implementation silently
// deduplicated against them and added fewer nodes.
func TestAddNodesAppends(t *testing.T) {
	// Empty graph: classic behavior.
	g := New()
	if first := g.AddNodes(3); first != 0 || g.NumNodes() != 3 {
		t.Fatalf("empty: first=%d nodes=%d, want 0 and 3", first, g.NumNodes())
	}
	if g.Name(0) != "v0" || g.Name(2) != "v2" {
		t.Fatalf("empty: names %q..%q", g.Name(0), g.Name(2))
	}

	// Non-empty graph without name collisions.
	g2 := New()
	g2.AddNode("a")
	g2.AddNode("b")
	if first := g2.AddNodes(2); first != 2 || g2.NumNodes() != 4 {
		t.Fatalf("non-empty: first=%d nodes=%d, want 2 and 4", first, g2.NumNodes())
	}

	// Colliding names: "v3" already exists where the generator would land.
	g3 := New()
	g3.AddNode("v3")
	g3.AddNode("x")
	first := g3.AddNodes(4)
	if first != 2 {
		t.Fatalf("collision: first=%d, want 2", first)
	}
	if g3.NumNodes() != 6 {
		t.Fatalf("collision: %d nodes, want 6 (exactly 4 added)", g3.NumNodes())
	}
	// Every ID from first on must be a genuinely new vertex.
	seen := map[string]bool{}
	for i := 0; i < g3.NumNodes(); i++ {
		name := g3.Name(NodeID(i))
		if seen[name] {
			t.Fatalf("duplicate node name %q", name)
		}
		seen[name] = true
	}
	// And IDs keep working for edges.
	g3.AddLink(first, first+3, 1, 1)
	if _, ok := g3.FindEdge(first, first+3); !ok {
		t.Fatal("edge between appended nodes not found")
	}
}
