// Package ospf models the link-state view that COYOTE manipulates: a
// link-state database (LSDB) holding the real topology plus injected fake
// nodes and links (the "lies" of §V-D), the SPF computation every router
// runs over that database, and the resulting FIBs with ECMP next-hop
// multiplicities.
//
// A fake node f for destination t is advertised adjacent to exactly one
// real router u (cost u→f = CostUp) and claims reachability to t (cost
// f→t = CostDown). Routers treat f as any other vertex; if a path through
// f ties for shortest, u installs an extra FIB entry whose forwarding
// adjacency resolves to the real neighbor MapsTo — exactly the Fibbing
// mechanism ([8], [9]) Fig. 1d illustrates.
package ospf

import (
	"fmt"
	"math"
	"slices"

	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/spf"
)

// FakeNode is one injected lie, scoped to a single destination prefix. Its
// identity is (Dest, Attached, MapsTo, Replica); the costs are what it
// advertises.
type FakeNode struct {
	Attached graph.NodeID // the router being lied to
	MapsTo   graph.NodeID // real neighbor the fake adjacency resolves to
	Dest     graph.NodeID // destination (prefix owner) this lie is scoped to
	Replica  int32        // which of Attached's equal lies toward MapsTo this is
	CostUp   float64      // advertised cost Attached → fake node
	CostDown float64      // advertised cost fake node → Dest
}

// Name renders f's identity as fake-t{Dest}-u{Attached}-v{MapsTo}-{Replica},
// the label of its LSA in messages and errors.
func (f FakeNode) Name() string {
	return fmt.Sprintf("fake-t%d-u%d-v%d-%d", f.Dest, f.Attached, f.MapsTo, f.Replica)
}

// LSDB is a link-state database: the real topology plus per-destination
// fake nodes.
type LSDB struct {
	G     *graph.Graph
	Fakes map[graph.NodeID][]FakeNode // keyed by destination
}

// NewLSDB wraps a real topology with an empty lie set.
func NewLSDB(g *graph.Graph) *LSDB {
	return &LSDB{G: g, Fakes: make(map[graph.NodeID][]FakeNode)}
}

// Inject adds a fake node to the database. Both advertised costs must be
// finite and strictly positive (a zero CostDown would claim the fake node
// sits on the destination; a NaN or infinite cost has no place in an SPF
// sum), all three node IDs must exist in the topology (an
// out-of-range Dest would otherwise only surface as an index panic deep
// inside SPF), and the lie must not target its own attachment router.
func (db *LSDB) Inject(f FakeNode) error {
	if !(f.CostUp > 0 && f.CostDown > 0) || math.IsInf(f.CostUp, 1) || math.IsInf(f.CostDown, 1) {
		return fmt.Errorf("ospf: fake node %q advertises costs %v and %v; both must be finite and positive", f.Name(), f.CostUp, f.CostDown)
	}
	n := graph.NodeID(db.G.NumNodes())
	if f.Attached < 0 || f.Attached >= n {
		return fmt.Errorf("ospf: fake node %q attached to out-of-range router %d (topology has %d nodes)", f.Name(), f.Attached, n)
	}
	if f.Dest < 0 || f.Dest >= n {
		return fmt.Errorf("ospf: fake node %q scoped to out-of-range destination %d (topology has %d nodes)", f.Name(), f.Dest, n)
	}
	if f.MapsTo < 0 || f.MapsTo >= n {
		return fmt.Errorf("ospf: fake node %q maps to out-of-range router %d (topology has %d nodes)", f.Name(), f.MapsTo, n)
	}
	if f.Dest == f.Attached {
		return fmt.Errorf("ospf: fake node %q lies to destination %d about itself", f.Name(), f.Dest)
	}
	if f.MapsTo == f.Attached {
		return fmt.Errorf("ospf: fake node %q maps to its own router", f.Name())
	}
	if _, ok := db.G.FindEdge(f.Attached, f.MapsTo); !ok {
		return fmt.Errorf("ospf: fake node %q maps to %d, not a neighbor of %d", f.Name(), f.MapsTo, f.Attached)
	}
	db.Fakes[f.Dest] = append(db.Fakes[f.Dest], f)
	return nil
}

// NumFakeNodes reports the total number of injected lies.
func (db *LSDB) NumFakeNodes() int {
	n := 0
	for _, fs := range db.Fakes {
		n += len(fs)
	}
	return n
}

// Hop is one FIB entry toward a destination: a real next-hop router and
// its ECMP multiplicity, the number of equal-cost adjacencies (fake ones
// included) that resolve to it.
type Hop struct {
	To   graph.NodeID
	Mult int
}

// AddHop adds mult adjacencies toward to into the FIB run fib[lo:]: it
// raises to's entry when the run has one and appends a new entry otherwise,
// so each next hop appears once, in order of first appearance.
func AddHop(fib []Hop, lo int, to graph.NodeID, mult int) []Hop {
	for i := lo; i < len(fib); i++ {
		if fib[i].To == to {
			fib[i].Mult += mult
			return fib
		}
	}
	return append(fib, Hop{To: to, Mult: mult})
}

// Workspace is the caller-owned state of Run, the one SPF kernel over an
// LSDB: the distance field, the heap, the destination's fakes indexed by
// attached router, and every router's realized FIB as a run of Hops in one
// slice. Its zero value is ready; Run sizes it to the LSDB's graph and
// reuses it, so a later run allocates only when its FIBs or its
// destination's fakes outgrow every earlier run's. A run overwrites the
// previous run's output.
type Workspace struct {
	// dist[u] is u's distance toward the last run's destination over the
	// augmented LSDB, spf.Inf when u cannot reach it.
	dist      []float64
	heap      *spf.Heap
	fibStart  []int32 // router u's FIB is fib[fibStart[u]:fibStart[u+1]]
	fib       []Hop
	fakeStart []int32 // the fakes attached to u are fakes[fakeIdx[fakeStart[u]:fakeStart[u+1]]]
	fakeIdx   []int32
}

// Run is the SPF computation every router performs over the augmented LSDB
// for destination dest. Each router's FIB lands in ws.FIB: the next hops of
// its real adjacencies in g.Out order, then those of its fakes in injection
// order, each next hop once.
func (ws *Workspace) Run(db *LSDB, dest graph.NodeID) {
	g := db.G
	n := g.NumNodes()
	if len(ws.dist) != n {
		*ws = Workspace{
			dist:      make([]float64, n),
			heap:      spf.NewHeap(n),
			fibStart:  make([]int32, n+1),
			fakeStart: make([]int32, n+1),
			fib:       make([]Hop, 0, g.NumEdges()), // room for one next hop per edge
		}
	}
	fakes := db.Fakes[dest]
	ws.indexFakes(fakes)

	// Distances toward dest over the augmented graph. Fake nodes only have
	// the path f → dest (CostDown), so dist(f) = CostDown, and they are
	// reachable only from their attachment router — each fake therefore
	// contributes exactly one constant-length candidate path
	// Attached → f → dest of cost CostUp+CostDown. Seeding those candidates
	// against dist[dest]=0 (final immediately) lets a single reverse
	// Dijkstra on the indexed heap cover the augmented graph without ever
	// materializing the fake vertices.
	dist := ws.dist
	for i := range dist {
		dist[i] = spf.Inf
	}
	dist[dest] = 0
	h := ws.heap
	h.DecreaseTo(dest, 0)
	for _, f := range fakes {
		if nd := f.CostUp + f.CostDown; nd < dist[f.Attached] {
			dist[f.Attached] = nd
			h.DecreaseTo(f.Attached, nd)
		}
	}
	for h.Len() > 0 {
		v, d := h.Pop()
		for _, id := range g.In(v) {
			e := g.Edge(id)
			if nd := e.Weight + d; nd < dist[e.From] {
				dist[e.From] = nd
				h.DecreaseTo(e.From, nd)
			}
		}
	}

	tree := spf.Tree{Dst: dest, Dist: dist}
	fib := ws.fib[:0]
	for u := 0; u < n; u++ {
		lo := len(fib)
		ws.fibStart[u] = int32(lo)
		if graph.NodeID(u) == dest || dist[u] == spf.Inf {
			continue
		}
		for _, id := range g.Out(graph.NodeID(u)) {
			if e := g.Edge(id); tree.OnShortestPath(e) {
				fib = AddHop(fib, lo, e.To, 1)
			}
		}
		for _, i := range ws.fakeIdx[ws.fakeStart[u]:ws.fakeStart[u+1]] {
			if f := &fakes[i]; spf.OnPath(dist[u], f.CostUp, f.CostDown) {
				fib = AddHop(fib, lo, f.MapsTo, 1)
			}
		}
	}
	ws.fibStart[n] = int32(len(fib))
	ws.fib = fib
}

// indexFakes sorts the positions of fakes by attached router (a stable
// counting sort into fakeStart/fakeIdx).
func (ws *Workspace) indexFakes(fakes []FakeNode) {
	start := ws.fakeStart
	clear(start)
	for _, f := range fakes {
		start[f.Attached+1]++
	}
	for u := 1; u < len(start); u++ {
		start[u] += start[u-1]
	}
	ws.fakeIdx = slices.Grow(ws.fakeIdx[:0], len(fakes))[:len(fakes)]
	for i, f := range fakes {
		ws.fakeIdx[start[f.Attached]] = int32(i)
		start[f.Attached]++
	}
	// Each start[u] now holds u's end, which is start[u+1] before the fill.
	copy(start[1:], start)
	start[0] = 0
}

// FIB returns router u's FIB from the last Run: one Hop per next hop,
// empty for the destination and for routers that cannot reach it. It is a
// view of the workspace, valid until the next Run.
func (ws *Workspace) FIB(u graph.NodeID) []Hop {
	return ws.fib[ws.fibStart[u]:ws.fibStart[u+1]]
}

// FIB is a router's forwarding table toward one destination: real next-hop
// neighbor → ECMP multiplicity (number of equal-cost adjacencies resolving
// to that neighbor, fake ones included).
type FIB map[graph.NodeID]int

// SPF is Run as maps: each router's FIB toward dest. fibs[u] is nil for
// unreachable routers and for dest itself.
func (db *LSDB) SPF(dest graph.NodeID) []FIB {
	var ws Workspace
	ws.Run(db, dest)
	fibs := make([]FIB, db.G.NumNodes())
	for u := range fibs {
		hops := ws.FIB(graph.NodeID(u))
		if len(hops) == 0 {
			continue
		}
		fib := make(FIB, len(hops))
		for _, h := range hops {
			fib[h.To] = h.Mult
		}
		fibs[u] = fib
	}
	return fibs
}

// Ratios converts a FIB into splitting ratios per real next-hop.
func (f FIB) Ratios() map[graph.NodeID]float64 {
	total := 0
	for _, m := range f {
		total += m
	}
	out := make(map[graph.NodeID]float64, len(f))
	for nh, m := range f {
		out[nh] = float64(m) / float64(total)
	}
	return out
}
