// Package spf implements OSPF-style shortest-path-first computations:
// per-destination distance fields, equal-cost next-hop sets, and
// shortest-path DAGs (the dashed DAGs of Fig. 1b in the paper).
//
// Distances are computed toward a destination t over the reversed graph, so
// that dist[u] is the length of the shortest u→t path; an edge e = (u,v)
// lies on a shortest path to t iff dist[u] = w(e) + dist[v].
//
// Two computation modes share one arithmetic contract. ToDestination is the
// cold Dijkstra over an indexed value-typed heap (no allocation per
// relaxation); Incremental maintains the same distance field under edge
// weight changes, failures, and recoveries, repairing only the affected
// vertices (Ramalingam–Reps style). Both converge to the unique least
// fixpoint of dist[u] = min over out-edges (u,v) of fl(w + dist[v]) in
// float64 arithmetic, so their outputs are bit-identical — the property the
// online controller's parity suite pins down.
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
// cached Dist, or an Incremental's repaired field) as a Tree, sharing the
// slice. It lets consumers reuse distances that are already known instead of
// re-running Dijkstra.
func FromDist(dst graph.NodeID, dist []float64) *Tree {
	return &Tree{Dst: dst, Dist: dist}
}

// ToDestination computes shortest-path distances from every node toward dst
// using Dijkstra's algorithm over the reversed graph.
func ToDestination(g *graph.Graph, dst graph.NodeID) *Tree {
	n := g.NumNodes()
	t := &Tree{Dst: dst, Dist: make([]float64, n)}
	dijkstraInto(g, dst, t.Dist, NewHeap(n))
	return t
}

// ToDestinationInto is ToDestination writing into caller-owned storage: dist
// (length NumNodes, fully overwritten) and a heap over at least NumNodes
// nodes (must be empty; left empty). It performs no allocation.
func ToDestinationInto(g *graph.Graph, dst graph.NodeID, dist []float64, h *Heap) *Tree {
	dijkstraInto(g, dst, dist, h)
	return &Tree{Dst: dst, Dist: dist}
}

// dijkstraInto runs Dijkstra toward dst over the reversed graph, writing
// into dist using h as the frontier queue.
func dijkstraInto(g *graph.Graph, dst graph.NodeID, dist []float64, h *Heap) {
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
	return math.Abs(du-(e.Weight+dv)) <= relTol*math.Max(1, du)
}

// NextHops returns the ECMP next-hop edge set of node u toward the tree's
// destination: all outgoing edges on shortest paths.
func (t *Tree) NextHops(g *graph.Graph, u graph.NodeID) []graph.EdgeID {
	return t.AppendNextHops(nil, g, u)
}

// AppendNextHops appends u's ECMP next-hop edges toward the tree's
// destination to buf and returns the extended slice — the allocation-free
// variant of NextHops for callers that own a reusable buffer.
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
