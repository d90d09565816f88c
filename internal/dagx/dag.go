// Package dagx builds and manipulates the per-destination forwarding DAGs at
// the heart of COYOTE (§V-B of the paper).
//
// Construction has two steps. Step I computes the shortest-path DAG rooted
// at each destination for a given link-weight assignment (package spf).
// Step II augments each DAG with every link that does not appear in it,
// oriented "towards the incident node that is closer to the destination,
// breaking ties lexicographically". Because positive weights make
// shortest-path edges strictly decrease the potential (dist_t(u), u) as
// well, every edge of the augmented DAG strictly decreases that potential,
// so the result is acyclic by construction.
package dagx

import (
	"fmt"
	"sync"

	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/spf"
)

// DAG is a per-destination forwarding DAG over a graph's directed edges. It
// is immutable once constructed (Member in particular is never written
// again), and must not be copied: share the pointer.
type DAG struct {
	Dst    graph.NodeID
	Member []bool         // Member[e] reports whether directed edge e belongs to the DAG
	Order  []graph.NodeID // topological order: every DAG edge goes from an earlier to a later node; Dst is last
	Dist   []float64      // the SPF distance field used to build the DAG (for diagnostics/stretch)

	// Member out-edges in CSR form, built by the first OutEdges call: node
	// u's are outIdx[outPtr[u]:outPtr[u+1]], in g.Out(u) order.
	outOnce sync.Once
	outPtr  []int32
	outIdx  []graph.EdgeID
}

// OutEdges returns u's DAG out-edges, in g.Out(u) order. g must be the
// graph the DAG was built over (or a clone with the same edges). The result
// is a view of storage shared by every caller: read it, do not write it
// (appending is safe — it copies).
func (d *DAG) OutEdges(g *graph.Graph, u graph.NodeID) []graph.EdgeID {
	d.outOnce.Do(func() {
		n := g.NumNodes()
		d.outPtr = make([]int32, n+1)
		d.outIdx = make([]graph.EdgeID, 0, d.NumEdges())
		for v := 0; v < n; v++ {
			for _, id := range g.Out(graph.NodeID(v)) {
				if d.Member[id] {
					d.outIdx = append(d.outIdx, id)
				}
			}
			d.outPtr[v+1] = int32(len(d.outIdx))
		}
	})
	lo, hi := d.outPtr[u], d.outPtr[u+1]
	return d.outIdx[lo:hi:hi]
}

// NumEdges counts member edges.
func (d *DAG) NumEdges() int {
	n := 0
	for _, in := range d.Member {
		if in {
			n++
		}
	}
	return n
}

// potentialLess reports whether node a has strictly smaller potential than
// node b under the lexicographic order (dist, id) used for augmentation.
func potentialLess(dist []float64, a, b graph.NodeID) bool {
	if dist[a] != dist[b] {
		return dist[a] < dist[b]
	}
	return a < b
}

// ShortestPath builds the plain shortest-path DAG rooted at dst (Step I
// only): this is the DAG traditional ECMP uses.
func ShortestPath(g *graph.Graph, dst graph.NodeID) *DAG {
	return ShortestPathFromTree(g, spf.ToDestination(g, dst))
}

// ShortestPathFromTree is ShortestPath over an already-computed distance
// field, for callers that already hold a tree for dst. The tree's Dist
// slice is retained (not copied) as the DAG's Dist.
func ShortestPathFromTree(g *graph.Graph, tree *spf.Tree) *DAG {
	d := &DAG{Dst: tree.Dst, Member: tree.ShortestPathEdges(g), Dist: tree.Dist}
	d.Order = topoOrder(g, d)
	return d
}

// Tree returns the shortest-path tree toward d.Dst over g: the DAG's cached
// construction-time distance field (sharing storage, zero Dijkstras — the
// DAGs of the standard pipeline and of sessions always carry one), or a cold
// spf.ToDestination over g when the DAG carries no distances (FromEdges).
func (d *DAG) Tree(g *graph.Graph) *spf.Tree {
	if d.Dist == nil {
		return spf.ToDestination(g, d.Dst)
	}
	return spf.FromDist(d.Dst, d.Dist)
}

// Augmented builds the COYOTE forwarding DAG rooted at dst: the
// shortest-path DAG plus every remaining link oriented downhill with respect
// to (dist, id). Edges incident to unreachable nodes are excluded.
func Augmented(g *graph.Graph, dst graph.NodeID) *DAG {
	return AugmentedFromTree(g, spf.ToDestination(g, dst))
}

// AugmentedFromTree is Augmented over an already-computed distance field
// for tree.Dst. The distances must be bit-identical to what
// spf.ToDestination(g, dst) would produce for the result to equal
// Augmented(g, dst). The tree's Dist slice is retained (not copied) as the
// DAG's Dist.
func AugmentedFromTree(g *graph.Graph, tree *spf.Tree) *DAG {
	dst := tree.Dst
	member := tree.ShortestPathEdges(g)
	for _, e := range g.Edges() {
		if member[e.ID] {
			continue
		}
		if tree.Dist[e.From] == spf.Inf || tree.Dist[e.To] == spf.Inf {
			continue
		}
		// Orient towards the endpoint closer to dst: keep e=(u,v) iff v has
		// strictly smaller potential than u.
		if potentialLess(tree.Dist, e.To, e.From) {
			member[e.ID] = true
		}
	}
	d := &DAG{Dst: dst, Member: member, Dist: tree.Dist}
	d.Order = topoOrder(g, d)
	return d
}

// FromEdges builds a DAG from an explicit membership vector, verifying
// acyclicity. It allows operators (or tests) to supply arbitrary DAGs, per
// §V-B: "DAGs rooted in different destinations are not coupled in any way,
// allowing network operators to specify any set of DAGs."
func FromEdges(g *graph.Graph, dst graph.NodeID, member []bool) (*DAG, error) {
	if len(member) != g.NumEdges() {
		return nil, fmt.Errorf("dagx: membership vector has %d entries, want %d", len(member), g.NumEdges())
	}
	d := &DAG{Dst: dst, Member: append([]bool(nil), member...)}
	order, ok := topoOrderChecked(g, d)
	if !ok {
		return nil, fmt.Errorf("dagx: edge set for destination %d contains a cycle", dst)
	}
	d.Order = order
	return d, nil
}

// topoOrder computes a topological order of the DAG's nodes and panics on a
// cycle; internal constructors guarantee acyclicity.
func topoOrder(g *graph.Graph, d *DAG) []graph.NodeID {
	order, ok := topoOrderChecked(g, d)
	if !ok {
		panic("dagx: internal constructor produced a cyclic DAG")
	}
	return order
}

// topoOrderChecked returns a topological order of the DAG's member edges
// and reports whether the edge set is acyclic.
func topoOrderChecked(g *graph.Graph, d *DAG) ([]graph.NodeID, bool) {
	n := g.NumNodes()
	return TopoOrderInto(make([]graph.NodeID, 0, n), make([]int32, n), g, d.Member)
}

// TopoOrderInto writes a topological order of g's nodes over the member
// edges (sources first, destination last among reachable nodes) into
// order[:0] and reports whether the edge set is acyclic; on a cycle the
// returned order is short. It is Kahn's algorithm with order itself as the
// FIFO queue, nodes entering in ID order and then in g.Out order. indeg
// (length NumNodes) is overwritten scratch. With cap(order) ≥ NumNodes it
// performs no allocation.
func TopoOrderInto(order []graph.NodeID, indeg []int32, g *graph.Graph, member []bool) ([]graph.NodeID, bool) {
	clear(indeg)
	edges := g.Edges()
	for id, in := range member {
		if in {
			indeg[edges[id].To]++
		}
	}
	order = order[:0]
	for i, k := range indeg {
		if k == 0 {
			order = append(order, graph.NodeID(i))
		}
	}
	for head := 0; head < len(order); head++ {
		for _, id := range g.Out(order[head]) {
			if !member[id] {
				continue
			}
			v := edges[id].To
			indeg[v]--
			if indeg[v] == 0 {
				order = append(order, v)
			}
		}
	}
	return order, len(order) == len(indeg)
}

// ContainsShortestPathDAG reports whether d contains every edge of the
// shortest-path DAG toward d.Dst under the graph's current weights. COYOTE's
// guarantee that it is "no worse than standard OSPF/ECMP" rests on this
// containment (§V-B).
func (d *DAG) ContainsShortestPathDAG(g *graph.Graph) bool {
	sp := spf.ToDestination(g, d.Dst).ShortestPathEdges(g)
	for id, in := range sp {
		if in && !d.Member[id] {
			return false
		}
	}
	return true
}

// BuildAll constructs a DAG per destination using the given constructor
// (ShortestPath or Augmented).
func BuildAll(g *graph.Graph, build func(*graph.Graph, graph.NodeID) *DAG) []*DAG {
	dags := make([]*DAG, g.NumNodes())
	for t := 0; t < g.NumNodes(); t++ {
		dags[t] = build(g, graph.NodeID(t))
	}
	return dags
}
