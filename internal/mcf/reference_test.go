package mcf

// The reference oracle: the FPTAS as production ran it before the
// allocation-free kernel of approx.go — per-tree allocations, graph.Edge
// copies, two walks per path — moved here verbatim, except for its
// shortest-path tree. spTree builds the tree by another algorithm than the
// kernel's reverse topological pass: distances as a Bellman–Ford fixpoint,
// parents picked afterwards by the kernel's rule. The kernel must reproduce
// the oracle's MLU and flows bit for bit (TestKernelMatchesReference) and its
// trees bit for bit (FuzzApproxTree).

import (
	"errors"
	"fmt"
	"math"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
)

// refMinMLUApprox is MinMLUApprox as it stood before the allocation-free
// kernel (approx.go) replaced it.
func refMinMLUApprox(g *graph.Graph, dags []*dagx.DAG, D *demand.Matrix, eps float64) (float64, [][]float64, error) {
	if eps <= 0 || eps >= 0.5 {
		return 0, nil, fmt.Errorf("mcf: eps %g out of range (0, 0.5)", eps)
	}
	n := g.NumNodes()
	if D.Total() == 0 {
		return 0, make([][]float64, n), nil
	}
	// Scale demands so a single-shortest-path routing has MLU 1; this keeps
	// the concurrency β = 1/OPT within a small constant and bounds the
	// number of phases.
	refMLU, err := singlePathMLU(g, dags, D)
	if err != nil {
		return math.Inf(1), nil, err
	}
	for attempt := 0; attempt < 8; attempt++ {
		scale := 1 / refMLU
		scaled := D.Clone().Scale(scale)
		mlu, flows, ok := gkRun(g, dags, scaled, eps)
		if !ok {
			// Zero full phases completed: demands too large relative to the
			// length budget; shrink and retry.
			refMLU *= 2
			continue
		}
		// Undo scaling: flow/scale routes D with utilization mlu/scale.
		for t := range flows {
			if flows[t] == nil {
				continue
			}
			for e := range flows[t] {
				flows[t][e] /= scale
			}
		}
		return mlu / scale, flows, nil
	}
	return 0, nil, errors.New("mcf: approximation failed to complete a phase")
}

// gkRun executes the core multiplicative-weights loop. It reports ok=false
// if no full phase completed.
func gkRun(g *graph.Graph, dags []*dagx.DAG, D *demand.Matrix, eps float64) (float64, [][]float64, bool) {
	n := g.NumNodes()
	m := g.NumEdges()
	delta := (1 + eps) * math.Pow((1+eps)*float64(m), -1/eps)
	length := make([]float64, m)
	sumLC := 0.0 // Σ l(e)·c(e)
	for _, e := range g.Edges() {
		length[e.ID] = delta / e.Capacity
		sumLC += delta
	}
	done := make([][]float64, n)  // flows from completed phases
	phase := make([][]float64, n) // flows from the in-progress phase
	var dests []int
	for t := 0; t < n; t++ {
		col := D.ToDestination(graph.NodeID(t))
		for _, d := range col {
			if d > 0 {
				dests = append(dests, t)
				done[t] = make([]float64, m)
				phase[t] = make([]float64, m)
				break
			}
		}
	}
	phases := 0
	maxPhases := 200000
	for sumLC < 1 && phases < maxPhases {
		for _, t := range dests {
			allowed := allowedEdges(g, dags, graph.NodeID(t))
			_, parent := spTree(g, graph.NodeID(t), length, allowed)
			col := D.ToDestination(graph.NodeID(t))
			for s := 0; s < n; s++ {
				if col[s] <= 0 || s == t {
					continue
				}
				if parent[s] < 0 {
					return 0, nil, false // unreachable (caller validated, so defensive)
				}
				rem := col[s]
				for rem > 1e-15 {
					// Walk the tree path, find the bottleneck capacity.
					bottleneck := math.Inf(1)
					for u := graph.NodeID(s); u != graph.NodeID(t); {
						e := g.Edge(parent[u])
						if e.Capacity < bottleneck {
							bottleneck = e.Capacity
						}
						u = e.To
					}
					f := math.Min(rem, bottleneck)
					for u := graph.NodeID(s); u != graph.NodeID(t); {
						e := g.Edge(parent[u])
						phase[t][e.ID] += f
						dl := length[e.ID] * eps * f / e.Capacity
						length[e.ID] += dl
						sumLC += dl * e.Capacity
						u = e.To
					}
					rem -= f
				}
			}
		}
		phases++
		for _, t := range dests {
			for e := 0; e < m; e++ {
				done[t][e] += phase[t][e]
				phase[t][e] = 0
			}
		}
	}
	if phases == 0 {
		return 0, nil, false
	}
	inv := 1 / float64(phases)
	mlu := 0.0
	for _, t := range dests {
		for e := 0; e < m; e++ {
			done[t][e] *= inv
		}
	}
	for _, ed := range g.Edges() {
		load := 0.0
		for _, t := range dests {
			load += done[t][ed.ID]
		}
		if u := load / ed.Capacity; u > mlu {
			mlu = u
		}
	}
	return mlu, done, true
}

// spTree computes a shortest-path tree toward t under the given edge
// lengths, restricted to allowed edges, which must form a DAG. dist is the
// Bellman–Ford fixpoint over the allowed edges (on a DAG, the one solution
// of dist[u] = min over u's edges of dist[head] + length); parent[u] is the
// first allowed edge in g.Out(u) order with dist[head] + length == dist[u]
// (or -1 if unreachable / u == t).
func spTree(g *graph.Graph, t graph.NodeID, length []float64, allowed []bool) ([]float64, []graph.EdgeID) {
	n := g.NumNodes()
	dist := make([]float64, n)
	parent := make([]graph.EdgeID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[t] = 0
	for changed := true; changed; {
		changed = false
		for _, e := range g.Edges() {
			if !allowed[e.ID] || e.From == t {
				continue
			}
			if d := dist[e.To] + length[e.ID]; d < dist[e.From] {
				dist[e.From] = d
				changed = true
			}
		}
	}
	for u := range parent {
		if graph.NodeID(u) == t || math.IsInf(dist[u], 1) {
			continue
		}
		for _, id := range g.Out(graph.NodeID(u)) {
			if allowed[id] && dist[g.Edge(id).To]+length[id] == dist[u] {
				parent[u] = id
				break
			}
		}
	}
	return dist, parent
}

// singlePathMLU routes every demand along one shortest path (by OSPF
// weight) and returns the resulting utilization — a cheap upper bound on
// OPT used only for demand scaling.
func singlePathMLU(g *graph.Graph, dags []*dagx.DAG, D *demand.Matrix) (float64, error) {
	n := g.NumNodes()
	loads := make([]float64, g.NumEdges())
	weights := make([]float64, g.NumEdges())
	for _, e := range g.Edges() {
		weights[e.ID] = e.Weight
	}
	for t := 0; t < n; t++ {
		col := D.ToDestination(graph.NodeID(t))
		any := false
		for _, d := range col {
			if d > 0 {
				any = true
				break
			}
		}
		if !any {
			continue
		}
		allowed := allowedEdges(g, dags, graph.NodeID(t))
		_, parent := spTree(g, graph.NodeID(t), weights, allowed)
		for s := 0; s < n; s++ {
			if col[s] <= 0 || s == t {
				continue
			}
			if parent[s] < 0 {
				return 0, ErrUnroutable
			}
			for u := graph.NodeID(s); u != graph.NodeID(t); {
				e := g.Edge(parent[u])
				loads[e.ID] += col[s]
				u = e.To
			}
		}
	}
	mlu := 0.0
	for _, e := range g.Edges() {
		if u := loads[e.ID] / e.Capacity; u > mlu {
			mlu = u
		}
	}
	return mlu, nil
}
