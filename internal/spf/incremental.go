package spf

import "github.com/coyote-te/coyote/internal/graph"

// Incremental is a single-destination distance field kept current under
// link failures and recoveries: dist[u] is the length of the shortest u→Dst
// path over the edges still active. Weights stay fixed; the graph is never
// mutated, and one graph can back many Incrementals.
//
// An event that cannot move the field costs O(1): failing an edge that is on
// no shortest path, or recovering one that shortens none. Any other event
// re-runs the package's one Dijkstra over the active edges, so the field is
// always exactly what ToDestination computes on the equivalent topology
// (TestIncrementalMatchesCold). The heap is allocated once, so events
// allocate nothing (TestIncrementalRepairAllocs).
//
// An Incremental is not safe for concurrent use.
type Incremental struct {
	g   *graph.Graph
	dst graph.NodeID

	active []bool // false = failed
	dist   []float64
	h      *Heap
}

// NewIncremental builds the structure for destination dst with every edge
// of g active.
func NewIncremental(g *graph.Graph, dst graph.NodeID) *Incremental {
	n := g.NumNodes()
	inc := &Incremental{
		g:      g,
		dst:    dst,
		active: make([]bool, g.NumEdges()),
		dist:   make([]float64, n),
		h:      NewHeap(n),
	}
	for i := range inc.active {
		inc.active[i] = true
	}
	dijkstraInto(g, dst, inc.dist, inc.h, nil)
	return inc
}

// FailEdge deactivates directed edge id. It returns the number of nodes
// whose distance was re-derived: all of them when the edge was on a
// shortest path, else 0. Failing a failed edge is a no-op.
func (inc *Incremental) FailEdge(id graph.EdgeID) int {
	if !inc.active[id] {
		return 0
	}
	inc.active[id] = false
	e := inc.g.Edge(id)
	if du, dv := inc.dist[e.From], inc.dist[e.To]; dv == Inf || e.Weight+dv != du {
		return 0 // not tight: no label depended on the edge
	}
	return inc.rerun()
}

// RecoverEdge reactivates directed edge id. It returns the number of nodes
// whose distance was re-derived: all of them when the edge shortens a path,
// else 0. Recovering an active edge is a no-op.
func (inc *Incremental) RecoverEdge(id graph.EdgeID) int {
	if inc.active[id] {
		return 0
	}
	inc.active[id] = true
	e := inc.g.Edge(id)
	if dv := inc.dist[e.To]; dv == Inf || e.Weight+dv >= inc.dist[e.From] {
		return 0
	}
	return inc.rerun()
}

// FailLink fails directed edge id and its reverse (if any).
func (inc *Incremental) FailLink(id graph.EdgeID) int {
	n := inc.FailEdge(id)
	if r := inc.g.Edge(id).Reverse; r >= 0 {
		n += inc.FailEdge(r)
	}
	return n
}

// RecoverLink recovers directed edge id and its reverse (if any).
func (inc *Incremental) RecoverLink(id graph.EdgeID) int {
	n := inc.RecoverEdge(id)
	if r := inc.g.Edge(id).Reverse; r >= 0 {
		n += inc.RecoverEdge(r)
	}
	return n
}

// rerun recomputes the field over the active edges.
func (inc *Incremental) rerun() int {
	dijkstraInto(inc.g, inc.dst, inc.dist, inc.h, inc.active)
	return len(inc.dist)
}
