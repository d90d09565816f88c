package strategy

import (
	"fmt"
	"math"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/pdrouting"
)

// buildCSPF is the MPLS-TE comparison baseline: per destination, every
// source pins a single explicit widest-shortest path — among the paths of
// minimum OSPF cost, the one maximizing the bottleneck capacity (the
// classic CSPF tie-break), with node IDs breaking residual ties so the
// result is deterministic. No splitting, no adaptation: the strategy shows
// what explicit single-path tunnels buy (and lose) against ratio-based
// splitting under the same uncertainty.
func buildCSPF(_ Config, g *graph.Graph, _ *demand.Box) (Plan, error) {
	n := g.NumNodes()
	dags := make([]*dagx.DAG, n)
	phi := make([][]float64, n)
	for t := 0; t < n; t++ {
		parent := widestShortestTree(g, graph.NodeID(t))
		member := make([]bool, g.NumEdges())
		phiT := make([]float64, g.NumEdges())
		for u := 0; u < n; u++ {
			if parent[u] >= 0 {
				member[parent[u]] = true
				phiT[parent[u]] = 1
			}
		}
		d, err := dagx.FromEdges(g, graph.NodeID(t), member)
		if err != nil {
			return nil, fmt.Errorf("strategy: cspf tree for %d: %w", t, err)
		}
		dags[t] = d
		phi[t] = phiT
	}
	r := &pdrouting.Routing{G: g, DAGs: dags, Phi: phi}
	return &staticPlan{r}, nil
}

// widestShortestTree runs a reverse Dijkstra toward t with the
// lexicographic label (cost, −width): minimize path cost first, then
// maximize the bottleneck capacity, then prefer the lower-ID upstream edge.
// parent[u] is the first edge of u's chosen path (−1 for t and unreachable
// nodes). Both label components are monotone along a path (cost only grows,
// width only shrinks), so label-setting extraction stays correct.
func widestShortestTree(g *graph.Graph, t graph.NodeID) []graph.EdgeID {
	n := g.NumNodes()
	dist := make([]float64, n)
	width := make([]float64, n)
	parent := make([]graph.EdgeID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[t] = 0
	width[t] = math.Inf(1)
	for {
		// O(n²) extraction keeps the lexicographic comparison simple; CSPF
		// builds run once per (topology, box), never on a hot path.
		u := graph.NodeID(-1)
		for v := 0; v < n; v++ {
			if done[v] || math.IsInf(dist[v], 1) {
				continue
			}
			if u < 0 || dist[v] < dist[u] || (dist[v] == dist[u] && width[v] > width[u]) {
				u = graph.NodeID(v)
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		for _, id := range g.In(u) {
			e := g.Edge(id)
			v := e.From
			if done[v] {
				continue
			}
			nd := dist[u] + e.Weight
			nw := math.Min(width[u], e.Capacity)
			if nd < dist[v] || (nd == dist[v] && nw > width[v]) ||
				(nd == dist[v] && nw == width[v] && parent[v] >= 0 && id < parent[v]) {
				dist[v] = nd
				width[v] = nw
				parent[v] = id
			}
		}
	}
	return parent
}
