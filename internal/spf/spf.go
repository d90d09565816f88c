// Package spf implements OSPF-style shortest-path-first computations:
// per-destination distance fields, equal-cost next-hop sets, and
// shortest-path DAGs (the dashed DAGs of Fig. 1b in the paper).
//
// Distances are computed toward a destination t over the reversed graph, so
// that dist[u] is the length of the shortest u→t path; an edge e = (u,v)
// lies on a shortest path to t iff dist[u] = w(e) + dist[v].
//
// dijkstraInto is the package's one Dijkstra: ToDestination runs it over
// every edge, and Incremental re-runs it over the edges a link event leaves
// active. Its result is the least fixpoint of dist[u] = min over out-edges
// (u,v) of fl(w + dist[v]) in float64 arithmetic, so a field kept under
// failures is bit-identical to a cold one on the survivor.
package spf

import (
	"math"

	"github.com/coyote-te/coyote/internal/graph"
)

// Inf is the distance assigned to nodes that cannot reach the destination.
const Inf = math.MaxFloat64

// relTol is the relative tolerance used when testing whether an edge lies on
// a shortest path; OSPF costs are integral in practice but our heuristics
// produce floats.
const relTol = 1e-9

// Tree holds the result of a shortest-path computation toward one
// destination.
type Tree struct {
	Dst  graph.NodeID
	Dist []float64 // Dist[u] = length of shortest u→Dst path, Inf if unreachable
}

// FromDist wraps an existing distance field (for example a forwarding DAG's
// cached Dist) as a Tree, sharing the slice. It lets consumers reuse
// distances that are already known instead of re-running Dijkstra.
func FromDist(dst graph.NodeID, dist []float64) *Tree {
	return &Tree{Dst: dst, Dist: dist}
}

// ToDestination computes shortest-path distances from every node toward dst
// using Dijkstra's algorithm over the reversed graph.
func ToDestination(g *graph.Graph, dst graph.NodeID) *Tree {
	n := g.NumNodes()
	t := &Tree{Dst: dst, Dist: make([]float64, n)}
	dijkstraInto(g, dst, t.Dist, NewHeap(n), nil)
	return t
}

// ToDestinationInto is ToDestination writing into caller-owned storage: dist
// (length NumNodes, fully overwritten) and a heap over at least NumNodes
// nodes (must be empty; left empty). It performs no allocation.
func ToDestinationInto(g *graph.Graph, dst graph.NodeID, dist []float64, h *Heap) *Tree {
	dijkstraInto(g, dst, dist, h, nil)
	return &Tree{Dst: dst, Dist: dist}
}

// dijkstraInto runs Dijkstra toward dst over the reversed graph, writing
// into dist using h (empty; left empty) as the frontier queue. Only the
// edges with active[id] set are relaxed; a nil active means every edge.
func dijkstraInto(g *graph.Graph, dst graph.NodeID, dist []float64, h *Heap, active []bool) {
	for i := range dist {
		dist[i] = Inf
	}
	dist[dst] = 0
	h.DecreaseTo(dst, 0)
	for h.Len() > 0 {
		v, d := h.Pop()
		dist[v] = d
		// Relax reversed edges: for edge e=(u,v) entering v, a path u→t via
		// v costs w(e) + d.
		for _, id := range g.In(v) {
			if active != nil && !active[id] {
				continue
			}
			e := g.Edge(id)
			nd := e.Weight + d
			if nd < dist[e.From] {
				dist[e.From] = nd
				h.DecreaseTo(e.From, nd)
			}
		}
	}
}

// OnShortestPath reports whether directed edge e lies on some shortest path
// toward the tree's destination.
func (t *Tree) OnShortestPath(e graph.Edge) bool {
	du, dv := t.Dist[e.From], t.Dist[e.To]
	if du == Inf || dv == Inf {
		return false
	}
	return OnPath(du, e.Weight, dv)
}

// OnPath is the shortest-path test OnShortestPath applies to finite
// distances: du equals w + dv within relTol. It is the one tie rule of the
// repository; the LSDB SPF of package ospf applies it to fake paths too.
func OnPath(du, w, dv float64) bool {
	return math.Abs(du-(w+dv)) <= relTol*math.Max(1, du)
}

// UnaffectedBy reports whether giving directed edge e weight w in place of
// e.Weight provably leaves the tree's Dist and ShortestPathEdges
// bit-identical. It holds when e is on no shortest path now and w + Dist[To]
// still exceeds Dist[From] by more than the OnShortestPath margin: then e
// stays off every shortest path, and the old field remains the unique
// fixpoint of the new weights. An edge into a node that cannot reach the
// destination is unaffected; a reachable head with an unreachable tail
// (which no consistent field has) counts as affected. For a link, both
// directions must be unaffected.
func (t *Tree) UnaffectedBy(e graph.Edge, w float64) bool {
	du, dv := t.Dist[e.From], t.Dist[e.To]
	if dv == Inf {
		return true
	}
	if du == Inf || OnPath(du, e.Weight, dv) {
		return false
	}
	return w+dv > du && !OnPath(du, w, dv)
}

// AppendNextHops appends u's ECMP next-hop edges toward the tree's
// destination — all outgoing edges on shortest paths — to buf and returns
// the extended slice, so callers that own a reusable buffer allocate nothing.
func (t *Tree) AppendNextHops(buf []graph.EdgeID, g *graph.Graph, u graph.NodeID) []graph.EdgeID {
	if u == t.Dst || t.Dist[u] == Inf {
		return buf
	}
	for _, id := range g.Out(u) {
		if t.OnShortestPath(g.Edge(id)) {
			buf = append(buf, id)
		}
	}
	return buf
}

// ShortestPathEdges returns a boolean membership vector (indexed by EdgeID)
// of the shortest-path DAG rooted at the tree's destination.
func (t *Tree) ShortestPathEdges(g *graph.Graph) []bool {
	return t.ShortestPathEdgesInto(make([]bool, g.NumEdges()), g)
}

// ShortestPathEdgesInto writes the shortest-path DAG membership vector into
// member (length NumEdges, fully overwritten) and returns it — the
// allocation-free variant of ShortestPathEdges.
func (t *Tree) ShortestPathEdgesInto(member []bool, g *graph.Graph) []bool {
	for _, e := range g.Edges() {
		member[e.ID] = t.OnShortestPath(e)
	}
	return member
}

// AllDestinations computes a Tree for every node of g.
func AllDestinations(g *graph.Graph) []*Tree {
	trees := make([]*Tree, g.NumNodes())
	h := NewHeap(g.NumNodes())
	for t := 0; t < g.NumNodes(); t++ {
		dist := make([]float64, g.NumNodes())
		trees[t] = ToDestinationInto(g, graph.NodeID(t), dist, h)
	}
	return trees
}
