package ospf

import (
	"math"
	"testing"

	"github.com/coyote-te/coyote/internal/graph"
)

// fig1d reproduces the paper's Fig. 1d: inserting one fake node at s1 whose
// adjacency maps to s2 makes s1 split 2/3 toward s2 and 1/3 toward v.
func fig1d(t *testing.T) (*graph.Graph, map[string]graph.NodeID, *LSDB) {
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
	db := NewLSDB(g)
	// s1's real shortest paths to t cost 2 (via s2 and via v). A fake node
	// at cost 1 + 1 ties with them and resolves to s2.
	err := db.Inject(FakeNode{
		Attached: ids["s1"], MapsTo: ids["s2"], Dest: ids["t"],
		CostUp: 1, CostDown: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, ids, db
}

func TestFig1dSplit(t *testing.T) {
	_, ids, db := fig1d(t)
	fibs := db.SPF(ids["t"])
	fib := fibs[ids["s1"]]
	if fib == nil {
		t.Fatal("s1 has no FIB toward t")
	}
	// s2 appears twice (real + fake), v once.
	if fib[ids["s2"]] != 2 || fib[ids["v"]] != 1 {
		t.Fatalf("s1 FIB = %v, want s2:2 v:1", fib)
	}
	ratios := fib.Ratios()
	if math.Abs(ratios[ids["s2"]]-2.0/3) > 1e-12 || math.Abs(ratios[ids["v"]]-1.0/3) > 1e-12 {
		t.Fatalf("s1 ratios = %v, want 2/3 and 1/3 (paper Fig. 1d)", ratios)
	}
}

func TestSPFWithoutLiesMatchesPlainECMP(t *testing.T) {
	g, ids, _ := fig1d(t)
	db := NewLSDB(g) // no lies
	fibs := db.SPF(ids["t"])
	if fib := fibs[ids["s1"]]; fib[ids["s2"]] != 1 || fib[ids["v"]] != 1 {
		t.Fatalf("plain s1 FIB = %v, want s2:1 v:1", fib)
	}
	if fib := fibs[ids["s2"]]; fib[ids["t"]] != 1 || len(fib) != 1 {
		t.Fatalf("plain s2 FIB = %v, want t:1 only", fib)
	}
	if fibs[ids["t"]] != nil {
		t.Fatal("destination must have no FIB")
	}
}

func TestFakeShortcutAttractsRemoteTraffic(t *testing.T) {
	// A fake node that strictly shortens its router's distance also changes
	// upstream routers' paths — the LSDB must propagate that honestly.
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	g.AddLink(a, b, 1, 1)
	g.AddLink(b, d, 1, 10) // expensive
	g.AddLink(a, c, 1, 1)
	g.AddLink(c, d, 1, 2)
	db := NewLSDB(g)
	// Without lies, a routes via c (1+2=3 < 1+10=11).
	fibs := db.SPF(d)
	if fib := fibs[a]; fib[c] != 1 || len(fib) != 1 {
		t.Fatalf("a FIB = %v, want c only", fib)
	}
	// Lie at b: fake path to d at cost 1. Now a's path via b costs 2 < 3.
	if err := db.Inject(FakeNode{Attached: b, MapsTo: d, Dest: d, CostUp: 0.5, CostDown: 0.5}); err != nil {
		t.Fatal(err)
	}
	fibs = db.SPF(d)
	if fib := fibs[a]; fib[b] != 1 || len(fib) != 1 {
		t.Fatalf("after lie, a FIB = %v, want b only", fib)
	}
	if fib := fibs[b]; fib[d] != 1 || len(fib) != 1 {
		t.Fatalf("after lie, b FIB = %v, want d (via fake) only", fib)
	}
}

// TestInjectRejectsBadCosts: a lie must advertise finite, strictly positive
// costs on both of its links. NaN slips past a "cost <= 0" test, and an
// infinite cost is no cost an SPF can add.
func TestInjectRejectsBadCosts(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddLink(a, b, 1, 1)
	db := NewLSDB(g)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		for _, f := range []FakeNode{
			{Attached: a, MapsTo: b, Dest: b, CostUp: bad, CostDown: 1},
			{Attached: a, MapsTo: b, Dest: b, CostUp: 1, CostDown: bad},
		} {
			if err := db.Inject(f); err == nil {
				t.Errorf("Inject accepted costs up %v, down %v", f.CostUp, f.CostDown)
			}
		}
	}
	if len(db.Fakes) != 0 {
		t.Fatalf("rejected lies reached the database: %v", db.Fakes)
	}
}

func TestInjectValidation(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddLink(a, b, 1, 1)
	db := NewLSDB(g)
	if err := db.Inject(FakeNode{Attached: a, MapsTo: c, Dest: b, CostUp: 1, CostDown: 1}); err == nil {
		t.Fatal("mapping to a non-neighbor should fail")
	}
	if err := db.Inject(FakeNode{Attached: a, MapsTo: a, Dest: b, CostUp: 1, CostDown: 1}); err == nil {
		t.Fatal("mapping to self should fail")
	}
	if err := db.Inject(FakeNode{Attached: a, MapsTo: b, Dest: b, CostUp: 0, CostDown: 1}); err == nil {
		t.Fatal("zero CostUp should fail")
	}
	if err := db.Inject(FakeNode{Attached: a, MapsTo: b, Dest: b, CostUp: 1, CostDown: 0}); err == nil {
		t.Fatal("zero CostDown should fail (error message promises non-positive costs are rejected)")
	}
	if err := db.Inject(FakeNode{Attached: a, MapsTo: b, Dest: b, CostUp: 1, CostDown: -1}); err == nil {
		t.Fatal("negative CostDown should fail")
	}
	n := graph.NodeID(g.NumNodes())
	if err := db.Inject(FakeNode{Attached: n, MapsTo: b, Dest: b, CostUp: 1, CostDown: 1}); err == nil {
		t.Fatal("out-of-range Attached should fail at injection, not panic in SPF")
	}
	if err := db.Inject(FakeNode{Attached: a, MapsTo: b, Dest: n, CostUp: 1, CostDown: 1}); err == nil {
		t.Fatal("out-of-range Dest should fail at injection, not panic in SPF")
	}
	if err := db.Inject(FakeNode{Attached: a, MapsTo: n, Dest: b, CostUp: 1, CostDown: 1}); err == nil {
		t.Fatal("out-of-range MapsTo should fail")
	}
	if err := db.Inject(FakeNode{Attached: a, MapsTo: b, Dest: -1, CostUp: 1, CostDown: 1}); err == nil {
		t.Fatal("negative Dest should fail")
	}
	if err := db.Inject(FakeNode{Attached: a, MapsTo: b, Dest: a, CostUp: 1, CostDown: 1}); err == nil {
		t.Fatal("Dest == Attached lie should fail: a router cannot be lied to about itself")
	}
	if err := db.Inject(FakeNode{Attached: a, MapsTo: b, Dest: b, CostUp: 1, CostDown: 0.5}); err != nil {
		t.Fatalf("valid fake rejected: %v", err)
	}
	if db.NumFakeNodes() != 1 {
		t.Fatalf("NumFakeNodes = %d, want 1", db.NumFakeNodes())
	}
}

func TestLiesAreDestinationScoped(t *testing.T) {
	g, ids, db := fig1d(t)
	_ = g
	// The lie targets destination t; SPF toward v must be unaffected.
	fibs := db.SPF(ids["v"])
	if fib := fibs[ids["s1"]]; fib[ids["s2"]] != 0 && fib[ids["s2"]] != 1 {
		// s1's SP to v is direct (cost 1); s2 adjacency must not gain
		// multiplicity from the t-scoped fake.
		t.Fatalf("s1 FIB toward v = %v unexpectedly altered by t-scoped lie", fib)
	}
	if fib := fibs[ids["s1"]]; fib[ids["v"]] != 1 {
		t.Fatalf("s1 FIB toward v = %v, want direct v:1", fib)
	}
}

// TestWorkspaceReuse: one Workspace run over every destination of two
// LSDBs of different sizes, in alternation, gives each run the FIBs a fresh
// SPF gives; parallel links to one neighbor merge into one entry.
func TestWorkspaceReuse(t *testing.T) {
	_, _, lied := fig1d(t)
	g := graph.New()
	g.AddNodes(5)
	for i := 0; i < 5; i++ {
		g.AddLink(graph.NodeID(i), graph.NodeID((i+1)%5), 1, 1)
	}
	g.AddLink(0, 1, 1, 1) // a parallel link: 0's FIB toward 1 holds 1 twice
	ring := NewLSDB(g)
	for _, f := range []FakeNode{
		{Attached: 3, MapsTo: 4, Dest: 1, CostUp: 0.5, CostDown: 1.5},
		{Attached: 3, MapsTo: 2, Dest: 1, CostUp: 1, CostDown: 1},
		{Attached: 2, MapsTo: 3, Dest: 0, CostUp: 1, CostDown: 1},
	} {
		if err := ring.Inject(f); err != nil {
			t.Fatal(err)
		}
	}
	if fib := ring.SPF(1)[0]; len(fib) != 1 || fib[1] != 2 {
		t.Fatalf("router 0 FIB toward 1 = %v, want 1:2", fib)
	}
	var ws Workspace
	for round := 0; round < 2; round++ {
		for _, db := range []*LSDB{ring, lied} {
			for dest := 0; dest < db.G.NumNodes(); dest++ {
				want := db.SPF(graph.NodeID(dest))
				ws.Run(db, graph.NodeID(dest))
				for u := range want {
					got := ws.FIB(graph.NodeID(u))
					if len(got) != len(want[u]) {
						t.Fatalf("router %d toward %d: reused FIB %v, fresh %v", u, dest, got, want[u])
					}
					for _, h := range got {
						if want[u][h.To] != h.Mult {
							t.Fatalf("router %d toward %d: reused FIB %v, fresh %v", u, dest, got, want[u])
						}
					}
				}
			}
		}
	}
}
