// Package graph provides the directed, capacitated network model used by
// every COYOTE subsystem. A network is a multigraph of directed edges, each
// carrying a capacity (for utilization accounting) and a weight (the OSPF
// link cost used by shortest-path computations).
//
// The model follows §III of the paper: the network is a directed graph
// G = (V, E) with c_e the capacity of edge e. Physical links are typically
// bidirectional and are modeled as two directed edges.
package graph

import (
	"fmt"
	"math"
)

// NodeID identifies a vertex. IDs are dense, starting at 0, and double as
// the lexicographic tie-break order required by the paper's DAG-augmentation
// step ("breaking ties lexicographically (suppose that the nodes are
// numbered)").
type NodeID int32

// EdgeID identifies a directed edge. IDs are dense, starting at 0.
type EdgeID int32

// Edge is a directed link with a capacity and an OSPF weight.
type Edge struct {
	ID       EdgeID
	From, To NodeID
	Capacity float64 // in abstract bandwidth units; must be > 0
	Weight   float64 // OSPF cost; must be > 0 for SPF
	Reverse  EdgeID  // the opposite directed edge if the link is bidirectional, else -1
}

// Graph is a directed multigraph. The zero value is an empty graph ready to
// use. Graph is not safe for concurrent mutation; concurrent reads are safe.
type Graph struct {
	names   []string
	nameIdx map[string]NodeID
	edges   []Edge
	out     [][]EdgeID
	in      [][]EdgeID
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{nameIdx: make(map[string]NodeID)}
}

// AddNode adds a vertex with the given name and returns its ID. Adding a
// name that already exists returns the existing ID.
func (g *Graph) AddNode(name string) NodeID {
	if g.nameIdx == nil {
		g.nameIdx = make(map[string]NodeID)
	}
	if id, ok := g.nameIdx[name]; ok {
		return id
	}
	id := NodeID(len(g.names))
	g.names = append(g.names, name)
	g.nameIdx[name] = id
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// AddNodes appends n anonymous vertices and returns the ID of the first
// one. Names follow the "v<k>" scheme, skipping any that already exist, so
// the call adds exactly n fresh vertices on any graph. (It previously
// documented itself as empty-graph-only: on a graph that already contained
// a colliding "v<k>" name, AddNode's dedup-by-name silently returned the
// existing vertex and fewer than n nodes were added.)
func (g *Graph) AddNodes(n int) NodeID {
	first := NodeID(len(g.names))
	k := len(g.names)
	for i := 0; i < n; i++ {
		for {
			name := fmt.Sprintf("v%d", k)
			k++
			if _, exists := g.nameIdx[name]; !exists {
				g.AddNode(name)
				break
			}
		}
	}
	return first
}

// AddEdge adds a directed edge and returns its ID. Capacity and weight must
// be positive; AddEdge panics otherwise, since a non-positive capacity or
// weight indicates a construction bug rather than a runtime condition.
func (g *Graph) AddEdge(from, to NodeID, capacity, weight float64) EdgeID {
	if from == to {
		panic(fmt.Sprintf("graph: self-loop at node %d", from))
	}
	if capacity <= 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("graph: non-positive capacity %v on edge %d->%d", capacity, from, to))
	}
	if weight <= 0 || math.IsNaN(weight) {
		panic(fmt.Sprintf("graph: non-positive weight %v on edge %d->%d", weight, from, to))
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, From: from, To: to, Capacity: capacity, Weight: weight, Reverse: -1})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	return id
}

// AddLink adds a bidirectional link as two directed edges with identical
// capacity and weight, linking them via the Reverse field. It returns the
// forward edge ID (the reverse is the returned ID's Reverse).
func (g *Graph) AddLink(a, b NodeID, capacity, weight float64) EdgeID {
	e1 := g.AddEdge(a, b, capacity, weight)
	e2 := g.AddEdge(b, a, capacity, weight)
	g.edges[e1].Reverse = e2
	g.edges[e2].Reverse = e1
	return e1
}

// NumNodes reports the number of vertices.
func (g *Graph) NumNodes() int { return len(g.names) }

// NumEdges reports the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Edges returns all edges. The returned slice must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// Out returns the IDs of edges leaving u. The returned slice must not be
// modified.
func (g *Graph) Out(u NodeID) []EdgeID { return g.out[u] }

// In returns the IDs of edges entering v. The returned slice must not be
// modified.
func (g *Graph) In(v NodeID) []EdgeID { return g.in[v] }

// Name returns the name of a node.
func (g *Graph) Name(id NodeID) string { return g.names[id] }

// NodeByName returns the ID of the named node.
func (g *Graph) NodeByName(name string) (NodeID, bool) {
	id, ok := g.nameIdx[name]
	return id, ok
}

// SetWeight updates the OSPF weight of a directed edge.
func (g *Graph) SetWeight(id EdgeID, w float64) {
	if w <= 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("graph: non-positive weight %v", w))
	}
	g.edges[id].Weight = w
}

// SetLinkWeight updates the weight of a directed edge and its reverse, if any.
func (g *Graph) SetLinkWeight(id EdgeID, w float64) {
	g.SetWeight(id, w)
	if r := g.edges[id].Reverse; r >= 0 {
		g.SetWeight(r, w)
	}
}

// Weights returns a copy of all edge weights indexed by EdgeID.
func (g *Graph) Weights() []float64 {
	w := make([]float64, len(g.edges))
	for i := range g.edges {
		w[i] = g.edges[i].Weight
	}
	return w
}

// SetWeights replaces all edge weights from a slice indexed by EdgeID.
func (g *Graph) SetWeights(w []float64) {
	if len(w) != len(g.edges) {
		panic("graph: SetWeights length mismatch")
	}
	for i := range g.edges {
		g.SetWeight(EdgeID(i), w[i])
	}
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		names:   append([]string(nil), g.names...),
		nameIdx: make(map[string]NodeID, len(g.nameIdx)),
		edges:   append([]Edge(nil), g.edges...),
		out:     make([][]EdgeID, len(g.out)),
		in:      make([][]EdgeID, len(g.in)),
	}
	for k, v := range g.nameIdx {
		c.nameIdx[k] = v
	}
	for i := range g.out {
		c.out[i] = append([]EdgeID(nil), g.out[i]...)
	}
	for i := range g.in {
		c.in[i] = append([]EdgeID(nil), g.in[i]...)
	}
	return c
}

// FindEdge returns the ID of the first edge from u to v, if one exists.
func (g *Graph) FindEdge(u, v NodeID) (EdgeID, bool) {
	for _, id := range g.out[u] {
		if g.edges[id].To == v {
			return id, true
		}
	}
	return -1, false
}

// Connected reports whether every node can reach every other node following
// directed edges (strong connectivity via two BFS passes from node 0).
func (g *Graph) Connected() bool {
	n := g.NumNodes()
	if n <= 1 {
		return true
	}
	reach := func(forward bool) int {
		seen := make([]bool, n)
		seen[0] = true
		stack := []NodeID{0}
		count := 1
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			var next []EdgeID
			if forward {
				next = g.out[u]
			} else {
				next = g.in[u]
			}
			for _, id := range next {
				var v NodeID
				if forward {
					v = g.edges[id].To
				} else {
					v = g.edges[id].From
				}
				if !seen[v] {
					seen[v] = true
					count++
					stack = append(stack, v)
				}
			}
		}
		return count
	}
	return reach(true) == n && reach(false) == n
}

// Validate checks structural invariants and returns an error describing the
// first violation found, if any.
func (g *Graph) Validate() error {
	for i, e := range g.edges {
		if EdgeID(i) != e.ID {
			return fmt.Errorf("graph: edge %d has mismatched ID %d", i, e.ID)
		}
		if int(e.From) >= len(g.names) || int(e.To) >= len(g.names) {
			return fmt.Errorf("graph: edge %d references unknown node", i)
		}
		if !(e.Capacity > 0) || math.IsInf(e.Capacity, 1) {
			return fmt.Errorf("graph: edge %d has capacity %v, want positive and finite", i, e.Capacity)
		}
		if !(e.Weight > 0) || math.IsInf(e.Weight, 1) {
			return fmt.Errorf("graph: edge %d (%s→%s) has weight %v, want positive and finite", i, g.names[e.From], g.names[e.To], e.Weight)
		}
		if e.Reverse >= 0 {
			r := g.edges[e.Reverse]
			if r.From != e.To || r.To != e.From {
				return fmt.Errorf("graph: edge %d reverse mismatch", i)
			}
		}
	}
	return nil
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(%d nodes, %d directed edges)", g.NumNodes(), g.NumEdges())
}

// WithoutLink returns a copy of g with the given directed edge and its
// reverse (if any) removed. Edge IDs are re-assigned densely in the new
// graph; node IDs are preserved. Failure analysis uses this to model
// single-link outages.
func (g *Graph) WithoutLink(id EdgeID) *Graph {
	return g.WithoutLinks([]EdgeID{id})
}

// WithoutLinks returns a copy of g with every listed directed edge and its
// reverse (if any) removed — the multi-link generalization of WithoutLink
// used for shared-risk link groups and a session's failed-link set. Edge IDs
// are re-assigned densely; node IDs are preserved.
func (g *Graph) WithoutLinks(ids []EdgeID) *Graph {
	skip := make(map[EdgeID]bool, 2*len(ids))
	for _, id := range ids {
		skip[id] = true
		if r := g.edges[id].Reverse; r >= 0 {
			skip[r] = true
		}
	}
	c := New()
	for _, name := range g.names {
		c.AddNode(name)
	}
	// Preserve link pairing by emitting forward edges with AddLink when
	// their reverse exists and follows them; otherwise AddEdge.
	done := make(map[EdgeID]bool)
	for _, e := range g.edges {
		if skip[e.ID] || done[e.ID] {
			continue
		}
		if e.Reverse >= 0 && !skip[e.Reverse] {
			r := g.edges[e.Reverse]
			if r.Capacity == e.Capacity && r.Weight == e.Weight {
				c.AddLink(e.From, e.To, e.Capacity, e.Weight)
				done[e.ID], done[e.Reverse] = true, true
				continue
			}
		}
		c.AddEdge(e.From, e.To, e.Capacity, e.Weight)
		done[e.ID] = true
	}
	return c
}

// Links returns one representative EdgeID per physical link: the
// lower-numbered direction of each bidirectional pair plus every one-way
// edge.
func (g *Graph) Links() []EdgeID {
	var out []EdgeID
	for _, e := range g.edges {
		if e.Reverse < 0 || e.ID < e.Reverse {
			out = append(out, e.ID)
		}
	}
	return out
}
