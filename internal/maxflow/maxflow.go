// Package maxflow implements Dinic's maximum-flow algorithm on the network
// model. COYOTE uses it for the min-cut arguments of the paper's Theorem 1
// reduction (the min-cut between the sources and the target of an INTEGER
// gadget instance is 2·SUM) and for quick demand-admissibility checks.
package maxflow

import (
	"math"

	"github.com/coyote-te/coyote/internal/graph"
)

// arc is an internal residual edge.
type arc struct {
	to  int
	rev int // index of the reverse arc in net[to]
	cap float64
}

// Network is a residual-flow network built from a graph. Extra nodes (super
// sources/sinks) may be added beyond the graph's own.
type Network struct {
	adj [][]arc
}

// NewNetwork returns an empty flow network with n nodes.
func NewNetwork(n int) *Network {
	return &Network{adj: make([][]arc, n)}
}

// FromGraph builds a flow network mirroring g's directed edges and
// capacities.
func FromGraph(g *graph.Graph) *Network {
	net := NewNetwork(g.NumNodes())
	for _, e := range g.Edges() {
		net.AddArc(int(e.From), int(e.To), e.Capacity)
	}
	return net
}

// AddNode appends a node and returns its index.
func (n *Network) AddNode() int {
	n.adj = append(n.adj, nil)
	return len(n.adj) - 1
}

// AddArc adds a directed arc with the given capacity (and a zero-capacity
// residual reverse arc).
func (n *Network) AddArc(from, to int, capacity float64) {
	n.adj[from] = append(n.adj[from], arc{to: to, rev: len(n.adj[to]), cap: capacity})
	n.adj[to] = append(n.adj[to], arc{to: from, rev: len(n.adj[from]) - 1, cap: 0})
}

const flowEps = 1e-12

// MaxFlow computes the maximum s→t flow value with Dinic's algorithm. The
// network's residual capacities are consumed; build a fresh Network per
// query.
func (n *Network) MaxFlow(s, t int) float64 {
	if s == t {
		return math.Inf(1)
	}
	total := 0.0
	level := make([]int, len(n.adj))
	iter := make([]int, len(n.adj))
	for n.bfs(s, t, level) {
		for i := range iter {
			iter[i] = 0
		}
		for {
			f := n.dfs(s, t, math.Inf(1), level, iter)
			if f <= flowEps {
				break
			}
			total += f
		}
	}
	return total
}

func (n *Network) bfs(s, t int, level []int) bool {
	for i := range level {
		level[i] = -1
	}
	level[s] = 0
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range n.adj[u] {
			if a.cap > flowEps && level[a.to] < 0 {
				level[a.to] = level[u] + 1
				queue = append(queue, a.to)
			}
		}
	}
	return level[t] >= 0
}

func (n *Network) dfs(u, t int, f float64, level, iter []int) float64 {
	if u == t {
		return f
	}
	for ; iter[u] < len(n.adj[u]); iter[u]++ {
		a := &n.adj[u][iter[u]]
		if a.cap > flowEps && level[a.to] == level[u]+1 {
			d := n.dfs(a.to, t, math.Min(f, a.cap), level, iter)
			if d > flowEps {
				a.cap -= d
				n.adj[a.to][a.rev].cap += d
				return d
			}
		}
	}
	return 0
}

// MinCut computes the s→t max-flow and returns its value together with the
// source-side node set of a minimum cut.
func (n *Network) MinCut(s, t int) (float64, []bool) {
	v := n.MaxFlow(s, t)
	side := make([]bool, len(n.adj))
	stack := []int{s}
	side[s] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range n.adj[u] {
			if a.cap > flowEps && !side[a.to] {
				side[a.to] = true
				stack = append(stack, a.to)
			}
		}
	}
	return v, side
}

// MinCutValue computes the min-cut value between node sets in g. Multiple
// sources are merged through a super-source with infinite-capacity arcs.
func MinCutValue(g *graph.Graph, sources []graph.NodeID, sink graph.NodeID) float64 {
	net := FromGraph(g)
	s := net.AddNode()
	for _, src := range sources {
		net.AddArc(s, int(src), math.Inf(1))
	}
	return net.MaxFlow(s, int(sink))
}
