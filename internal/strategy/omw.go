package strategy

import (
	"fmt"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/localsearch"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/spf"
)

// buildOMW is "one more weight is enough" (Xu et al.): routers keep two
// weight sets — the INVERSECAPACITY default and one extra set tuned against
// the box by the local search — and ECMP-hash across the union of the two
// shortest-path graphs. Here the union is expressed as one per-destination
// DAG: plane-1 SP edges enter as-is, plane-2 SP edges enter when they are
// downhill with respect to plane 1's (dist, id) potential (the same
// orientation rule dagx augmentation uses), which keeps the union acyclic
// at the cost of dropping plane-2 edges that would climb back uphill.
// Splitting is proportional to plane multiplicity: an edge on both planes'
// shortest paths carries twice the share of a single-plane edge.
func buildOMW(cfg Config, g *graph.Graph, box *demand.Box) (Plan, error) {
	plane1 := g.Clone()
	plane1.SetWeights(localsearch.InverseCapacityWeights(g))
	ls, err := localsearch.Optimize(g, box, localsearch.Config{
		OuterIters: cfg.AdvIters,
		InnerMoves: 10 * g.NumEdges(),
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	plane2 := g.Clone()
	plane2.SetWeights(ls.Weights)

	n := g.NumNodes()
	dags := make([]*dagx.DAG, n)
	phi := make([][]float64, n)
	for t := 0; t < n; t++ {
		tree1 := spf.ToDestination(plane1, graph.NodeID(t))
		sp1 := tree1.ShortestPathEdges(plane1)
		sp2 := spf.ToDestination(plane2, graph.NodeID(t)).ShortestPathEdges(plane2)
		member := make([]bool, g.NumEdges())
		mult := make([]int, g.NumEdges())
		for _, e := range g.Edges() {
			if sp1[e.ID] {
				member[e.ID] = true
				mult[e.ID]++
			}
			if sp2[e.ID] && downhill(tree1.Dist, e) {
				member[e.ID] = true
				mult[e.ID]++
			}
		}
		d, err := dagx.FromEdges(g, graph.NodeID(t), member)
		if err != nil {
			return nil, fmt.Errorf("strategy: omw union DAG for %d: %w", t, err)
		}
		phiT := make([]float64, g.NumEdges())
		for u := 0; u < n; u++ {
			if u == t {
				continue
			}
			out := d.OutEdges(g, graph.NodeID(u))
			total := 0
			for _, id := range out {
				total += mult[id]
			}
			if total == 0 {
				continue
			}
			for _, id := range out {
				phiT[id] = float64(mult[id]) / float64(total)
			}
		}
		dags[t] = d
		phi[t] = phiT
	}
	r := &pdrouting.Routing{G: g, DAGs: dags, Phi: phi}
	return &staticPlan{r: r, cost: Cost{DAGEdges: dagEdges(r), Scenarios: len(ls.CriticalDMs)}}, nil
}

// downhill reports whether edge e strictly decreases the (dist, id)
// potential of plane 1 — the acyclicity-preserving admission test for
// plane-2 shortest-path edges.
func downhill(dist []float64, e graph.Edge) bool {
	if dist[e.From] == spf.Inf || dist[e.To] == spf.Inf {
		return false
	}
	if dist[e.To] != dist[e.From] {
		return dist[e.To] < dist[e.From]
	}
	return e.To < e.From
}
