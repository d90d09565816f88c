package spf

import (
	"math/rand"
	"testing"

	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/topo"
)

// TestHeapOrdering exercises the indexed heap against a brute-force oracle:
// random interleavings of insert-or-decrease and pop must always pop the
// (key, id)-minimal queued node.
func TestHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 32
	for trial := 0; trial < 200; trial++ {
		h := NewHeap(n)
		oracle := make(map[graph.NodeID]float64)
		for op := 0; op < 120; op++ {
			switch rng.Intn(3) {
			case 0, 1: // insert-or-decrease
				v := graph.NodeID(rng.Intn(n))
				k := rng.Float64() * 100
				if old, ok := oracle[v]; !ok || k < old {
					oracle[v] = k
				}
				h.DecreaseTo(v, k)
			case 2: // pop
				if len(oracle) == 0 {
					continue
				}
				wantV, wantK := graph.NodeID(-1), 0.0
				for v, k := range oracle {
					if wantV < 0 || k < wantK || (k == wantK && v < wantV) {
						wantV, wantK = v, k
					}
				}
				gotV, gotK := h.Pop()
				if gotV != wantV || gotK != wantK {
					t.Fatalf("trial %d op %d: popped (%d, %g), want (%d, %g)", trial, op, gotV, gotK, wantV, wantK)
				}
				delete(oracle, wantV)
			}
			if h.Len() != len(oracle) {
				t.Fatalf("trial %d op %d: heap len %d, oracle %d", trial, op, h.Len(), len(oracle))
			}
		}
	}
}

// withoutEdges is g without the directed edges in down, node IDs preserved
// (graph.WithoutLinks drops whole links; the property test also fails single
// directions). It returns the graph and the g-edge → new-edge ID mapping (-1
// for a removed edge).
func withoutEdges(g *graph.Graph, down map[graph.EdgeID]bool) (*graph.Graph, []graph.EdgeID) {
	ng := graph.New()
	for i := 0; i < g.NumNodes(); i++ {
		ng.AddNode(g.Name(graph.NodeID(i)))
	}
	mapping := make([]graph.EdgeID, g.NumEdges())
	for _, e := range g.Edges() {
		if down[e.ID] {
			mapping[e.ID] = -1
			continue
		}
		mapping[e.ID] = ng.AddEdge(e.From, e.To, e.Capacity, e.Weight)
	}
	return ng, mapping
}

// checkAgainstCold asserts the incremental field is bit-identical to a cold
// ToDestination on g without the directed edges the test failed — distances
// and shortest-path DAG membership both.
func checkAgainstCold(t *testing.T, g *graph.Graph, down map[graph.EdgeID]bool, inc *Incremental, dst graph.NodeID, step int) {
	t.Helper()
	ng, mapping := withoutEdges(g, down)
	cold := ToDestination(ng, dst)
	tree := &Tree{Dst: dst, Dist: inc.dist}
	for u := range cold.Dist {
		if got := tree.Dist[u]; got != cold.Dist[u] {
			t.Fatalf("step %d: dist[%d] = %v, cold Dijkstra %v", step, u, got, cold.Dist[u])
		}
	}
	coldMember := cold.ShortestPathEdges(ng)
	for _, e := range g.Edges() {
		nid := mapping[e.ID]
		if nid < 0 {
			continue
		}
		// Evaluate membership with ng's weights (== g's).
		ne := ng.Edge(nid)
		if got := tree.OnShortestPath(ne); got != coldMember[nid] {
			t.Fatalf("step %d: edge %d (%d→%d) membership %v, cold %v", step, e.ID, e.From, e.To, got, coldMember[nid])
		}
	}
}

// propertyTopologies returns the corpus + generated topologies the
// randomized fail/recover parity property runs over.
func propertyTopologies(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	corpus := []string{"NSF", "Abilene", "Geant"}
	if testing.Short() {
		corpus = []string{"NSF"}
	}
	for _, name := range corpus {
		g, err := topo.Load(name)
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		out[name] = g
	}
	for _, gen := range []struct {
		name string
		p    scen.Params
	}{
		{"waxman", scen.Params{N: 24, Seed: 5}},
		{"ba", scen.Params{N: 30, Seed: 9, M: 2}},
	} {
		g, err := scen.Generate(gen.name, gen.p)
		if err != nil {
			t.Fatalf("generate %s: %v", gen.name, err)
		}
		out[gen.name] = g
	}
	return out
}

// TestIncrementalMatchesCold is the dynamic-SPF parity property: over
// randomized sequences of link and directed-edge failures and recoveries,
// the field kept under those events must stay bit-identical — distances and
// ShortestPathEdges — to a cold Dijkstra on the equivalent topology.
func TestIncrementalMatchesCold(t *testing.T) {
	steps := 90
	if testing.Short() {
		steps = 25
	}
	for name, g := range propertyTopologies(t) {
		g := g
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(len(name)) * 1237))
			n := g.NumNodes()
			links := g.Links()
			for _, dst := range []graph.NodeID{0, graph.NodeID(n / 2), graph.NodeID(n - 1)} {
				inc := NewIncremental(g, dst)
				down := map[graph.EdgeID]bool{} // failed directed edges
				checkAgainstCold(t, g, down, inc, dst, -1)
				failed := map[graph.EdgeID]bool{}
				setLink := func(id graph.EdgeID, isDown bool) {
					down[id] = isDown
					if r := g.Edge(id).Reverse; r >= 0 {
						down[r] = isDown
					}
				}
				for step := 0; step < steps; step++ {
					switch r := rng.Intn(10); {
					case r < 4: // fail a random directed edge (one direction of a link)
						id := graph.EdgeID(rng.Intn(g.NumEdges()))
						if down[id] {
							continue
						}
						down[id] = true
						inc.FailEdge(id)
					case r < 7: // fail a random link (disconnection is fine for SPF)
						id := links[rng.Intn(len(links))]
						if failed[id] {
							continue
						}
						failed[id] = true
						setLink(id, true)
						inc.FailLink(id)
					case r < 9: // recover a random failed link
						var pick graph.EdgeID = -1
						for id := range failed {
							if pick < 0 || id < pick {
								pick = id
							}
						}
						if pick < 0 {
							continue
						}
						delete(failed, pick)
						setLink(pick, false)
						inc.RecoverLink(pick)
					default: // single directed edge fail/recover round-trip
						id := graph.EdgeID(rng.Intn(g.NumEdges()))
						if down[id] {
							down[id] = false
							inc.RecoverEdge(id)
						} else if rng.Intn(2) == 0 {
							inc.FailEdge(id)
							inc.RecoverEdge(id)
						}
					}
					checkAgainstCold(t, g, down, inc, dst, step)
				}
			}
		})
	}
}

// TestIncrementalNoOpRepairs checks that an event which cannot move the
// field re-derives nothing: failing and recovering an edge on no shortest
// path returns 0, and a link's fail/recover round trip restores the field
// bit for bit.
func TestIncrementalNoOpRepairs(t *testing.T) {
	g, err := topo.Load("NSF")
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(g, 0)
	cold := ToDestination(g, 0)
	// Failing and recovering a non-tight edge touches nothing.
	for _, e := range g.Edges() {
		if cold.OnShortestPath(e) || cold.Dist[e.From] == Inf {
			continue
		}
		if n := inc.FailEdge(e.ID); n != 0 {
			t.Fatalf("failing non-tight edge %d repaired %d vertices, want 0", e.ID, n)
		}
		if n := inc.RecoverEdge(e.ID); n != 0 {
			t.Fatalf("recovering non-tight edge %d repaired %d vertices, want 0", e.ID, n)
		}
	}
	// A fail immediately followed by recover restores the exact field.
	link := g.Links()[3]
	inc.FailLink(link)
	inc.RecoverLink(link)
	for u, d := range inc.dist {
		if d != cold.Dist[u] {
			t.Fatalf("fail/recover round-trip changed dist[%d]: %v → %v", u, cold.Dist[u], d)
		}
	}
}

// TestIncrementalRepairAllocs is the alloc-regression guard for the dynamic
// SPF repair path (tier-1, run in CI): once the structure is warmed up,
// link and directed-edge fail/recover repairs must not allocate at all.
func TestIncrementalRepairAllocs(t *testing.T) {
	g, err := topo.Load("Geant")
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(g, 0)
	links := g.Links()
	// Warm the scratch: every link fails and recovers once.
	for _, id := range links {
		inc.FailLink(id)
		inc.RecoverLink(id)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		id := links[i%len(links)]
		inc.FailLink(id)
		inc.RecoverLink(id)
		eid := graph.EdgeID(i % g.NumEdges())
		inc.FailEdge(eid)
		inc.RecoverEdge(eid)
		i++
	})
	if allocs != 0 {
		t.Fatalf("incremental repair allocated %v times per op, want 0", allocs)
	}
}
