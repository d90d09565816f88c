package spf

import "github.com/coyote-te/coyote/internal/graph"

// Incremental is a dynamic single-destination shortest-path structure: it
// maintains the distance field dist[u] = length of the shortest u→Dst path
// under link failures and recoveries, repairing only the affected vertices
// instead of re-running Dijkstra from scratch (Ramalingam–Reps-style dynamic
// SPF, DESIGN.md §12). Weights stay fixed: the session only fails and
// recovers links.
//
// The structure copies the edge weights at construction and keeps an active
// mask (failed edges are inactive), so the underlying graph is never mutated
// and one graph can back many Incrementals. After every operation the field
// satisfies the same fixpoint cold Dijkstra computes —
//
//	dist[u] = min over active out-edges (u,v) of fl(w(u,v) + dist[v])
//
// in float64 arithmetic — so distances (and therefore shortest-path DAG
// membership) are bit-identical to a cold ToDestination on the equivalent
// topology. The parity property tests in incremental_test.go pin this.
//
// All repair scratch (the indexed heap, the affected mask, the work stack)
// is preallocated at construction and reused, so steady-state operations
// allocate nothing (see TestIncrementalRepairAllocs).
//
// An Incremental is not safe for concurrent use.
type Incremental struct {
	g   *graph.Graph
	dst graph.NodeID

	weight []float64 // per-edge weight, copied from g at construction
	active []bool    // false = failed
	dist   []float64

	h        *Heap          // repair frontier, reused across operations
	affected []bool         // increase-phase: vertex awaits re-labeling
	stack    []graph.NodeID // increase-phase: closure work stack
	marked   []graph.NodeID // increase-phase: members of the affected set
}

// NewIncremental builds the structure for destination dst with an initial
// cold Dijkstra over g's current weights (all edges active).
func NewIncremental(g *graph.Graph, dst graph.NodeID) *Incremental {
	n, nE := g.NumNodes(), g.NumEdges()
	inc := &Incremental{
		g:        g,
		dst:      dst,
		weight:   make([]float64, nE),
		active:   make([]bool, nE),
		dist:     make([]float64, n),
		h:        NewHeap(n),
		affected: make([]bool, n),
		stack:    make([]graph.NodeID, 0, n),
		marked:   make([]graph.NodeID, 0, n),
	}
	for i := 0; i < nE; i++ {
		inc.weight[i] = g.Edge(graph.EdgeID(i)).Weight
		inc.active[i] = true
	}
	inc.recomputeAll()
	return inc
}

// Dst returns the destination the field is rooted at.
func (inc *Incremental) Dst() graph.NodeID { return inc.dst }

// Dist returns the live distance field (indexed by NodeID). It must be
// treated read-only and is invalidated by the next mutating call.
func (inc *Incremental) Dist() []float64 { return inc.dist }

// Tree wraps the live distance field as a Tree (sharing storage); the same
// read-only/staleness caveat as Dist applies.
func (inc *Incremental) Tree() *Tree { return &Tree{Dst: inc.dst, Dist: inc.dist} }

// TreeCopy returns a Tree over a snapshot copy of the current distance
// field — for consumers that retain the tree past the next mutating call
// (dagx DAGs keep their Dist slice for the epoch's lifetime).
func (inc *Incremental) TreeCopy() *Tree {
	return &Tree{Dst: inc.dst, Dist: append([]float64(nil), inc.dist...)}
}

// Active reports whether edge id is currently active (not failed).
func (inc *Incremental) Active(id graph.EdgeID) bool { return inc.active[id] }

// recomputeAll runs the masked cold Dijkstra over the active edges — the
// initial build (and a test oracle via RecomputeAll).
func (inc *Incremental) recomputeAll() {
	dist := inc.dist
	for i := range dist {
		dist[i] = Inf
	}
	dist[inc.dst] = 0
	h := inc.h
	h.Reset()
	h.DecreaseTo(inc.dst, 0)
	for h.Len() > 0 {
		v, d := h.Pop()
		for _, id := range inc.g.In(v) {
			if !inc.active[id] {
				continue
			}
			u := inc.g.Edge(id).From
			nd := inc.weight[id] + d
			if nd < dist[u] {
				dist[u] = nd
				h.DecreaseTo(u, nd)
			}
		}
	}
}

// RecomputeAll discards the maintained field and rebuilds it cold — the
// escape hatch (and the oracle the property tests compare against).
func (inc *Incremental) RecomputeAll() { inc.recomputeAll() }

// FailEdge deactivates directed edge id (an infinite-weight update) and
// repairs the field, returning the number of re-derived vertices. Failing
// an already-failed edge is a no-op.
func (inc *Incremental) FailEdge(id graph.EdgeID) int {
	if !inc.active[id] {
		return 0
	}
	inc.active[id] = false
	return inc.increased(id)
}

// RecoverEdge reactivates directed edge id at its weight and
// repairs the field. Recovering an active edge is a no-op.
func (inc *Incremental) RecoverEdge(id graph.EdgeID) int {
	if inc.active[id] {
		return 0
	}
	inc.active[id] = true
	return inc.decreased(id)
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

// decreased handles the recovery of edge id = (u,v): seed u
// with the new candidate and run a decrease-only Dijkstra from there. Each
// relaxation can only lower labels, and pops happen in increasing key
// order, so every popped label is final (the standard Dijkstra argument).
func (inc *Incremental) decreased(id graph.EdgeID) int {
	g := inc.g
	e := g.Edge(id)
	dv := inc.dist[e.To]
	if dv == Inf {
		return 0
	}
	nd := inc.weight[id] + dv
	if nd >= inc.dist[e.From] {
		return 0
	}
	dist := inc.dist
	h := inc.h
	dist[e.From] = nd
	h.DecreaseTo(e.From, nd)
	repaired := 0
	for h.Len() > 0 {
		x, d := h.Pop()
		repaired++
		for _, eid := range g.In(x) {
			if !inc.active[eid] {
				continue
			}
			y := g.Edge(eid).From
			cand := inc.weight[eid] + d
			if cand < dist[y] {
				dist[y] = cand
				h.DecreaseTo(y, cand)
			}
		}
	}
	return repaired
}

// supportOf returns min over x's active out-edges of fl(w + dist[to]),
// skipping endpoints that are unreachable or (when skipAffected) currently
// awaiting re-labeling. Inf when no usable support exists.
func (inc *Incremental) supportOf(x graph.NodeID, skipAffected bool) float64 {
	g := inc.g
	best := Inf
	for _, eid := range g.Out(x) {
		if !inc.active[eid] {
			continue
		}
		to := g.Edge(eid).To
		if skipAffected && inc.affected[to] {
			continue
		}
		dz := inc.dist[to]
		if dz == Inf {
			continue
		}
		if cand := inc.weight[eid] + dz; cand < best {
			best = cand
		}
	}
	return best
}

// increased handles the failure of edge id = (u,v). Two phases:
//
// Phase 1 marks the affected closure: u, if its label was supported by the
// changed edge and no surviving edge re-derives it, then transitively every
// vertex whose label was tight through an affected vertex. The closure may
// over-approximate (a vertex with an equal-cost alternative support is still
// visited); that costs only wasted re-derivation, never correctness, because
// phase 2 re-derives every member from the unaffected boundary.
//
// Phase 2 is a Dijkstra restricted to the affected set: members are keyed by
// their best support outside the set, popped in increasing order, and
// re-labeled; members never popped are unreachable and stay at Inf.
func (inc *Incremental) increased(id graph.EdgeID) int {
	g := inc.g
	e := g.Edge(id)
	u, v := e.From, e.To
	dist := inc.dist
	if dist[u] == Inf || dist[v] == Inf {
		return 0 // the edge cannot have supported any finite label
	}
	if inc.weight[id]+dist[v] != dist[u] {
		return 0 // the edge was not tight: no label depended on it
	}
	if inc.supportOf(u, false) == dist[u] {
		return 0 // an equal-cost alternative still supports u exactly
	}

	// Phase 1: affected closure over tight in-edges.
	inc.marked = inc.marked[:0]
	inc.stack = inc.stack[:0]
	inc.affected[u] = true
	inc.marked = append(inc.marked, u)
	inc.stack = append(inc.stack, u)
	for len(inc.stack) > 0 {
		x := inc.stack[len(inc.stack)-1]
		inc.stack = inc.stack[:len(inc.stack)-1]
		for _, eid := range g.In(x) {
			if !inc.active[eid] {
				continue
			}
			y := g.Edge(eid).From
			if inc.affected[y] || dist[y] == Inf {
				continue
			}
			if inc.weight[eid]+dist[x] == dist[y] { // y's label was tight through x
				inc.affected[y] = true
				inc.marked = append(inc.marked, y)
				inc.stack = append(inc.stack, y)
			}
		}
	}

	// Phase 2: re-derive the set from its unaffected boundary.
	h := inc.h
	h.Reset()
	for _, x := range inc.marked {
		if key := inc.supportOf(x, true); key != Inf {
			h.DecreaseTo(x, key)
		}
	}
	for _, x := range inc.marked {
		dist[x] = Inf
	}
	for h.Len() > 0 {
		x, d := h.Pop()
		dist[x] = d
		inc.affected[x] = false
		for _, eid := range g.In(x) {
			if !inc.active[eid] {
				continue
			}
			y := g.Edge(eid).From
			if !inc.affected[y] {
				continue
			}
			h.DecreaseTo(y, inc.weight[eid]+d)
		}
	}
	for _, x := range inc.marked {
		inc.affected[x] = false // the unreachable remainder stays at Inf
	}
	return len(inc.marked)
}
