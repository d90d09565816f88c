// Package pdrouting implements the per-destination (PD) routing model of
// §III of the paper: a routing configuration φ assigns, for every
// destination t and DAG edge e = (u, v), the fraction φ_t(e) of the
// destination-t flow entering u that is forwarded on e. Flow fractions
// f_st(v) and link loads follow by propagation in topological order.
package pdrouting

import (
	"fmt"
	"math"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/par"
)

// ratioTol is the tolerance for splitting-ratio normalization checks.
const ratioTol = 1e-6

// Routing is a complete PD routing: one forwarding DAG and one
// splitting-ratio vector per destination.
type Routing struct {
	G    *graph.Graph
	DAGs []*dagx.DAG // indexed by destination node
	Phi  [][]float64 // Phi[t][e]: splitting ratio of edge e toward destination t
}

// Uniform builds the ECMP-style routing that splits equally among each
// node's DAG out-edges (Fig. 1b when applied to shortest-path DAGs).
func Uniform(g *graph.Graph, dags []*dagx.DAG) *Routing {
	r := &Routing{G: g, DAGs: dags, Phi: make([][]float64, len(dags))}
	for t, d := range dags {
		phi := make([]float64, g.NumEdges())
		for u := 0; u < g.NumNodes(); u++ {
			if graph.NodeID(u) == d.Dst {
				continue
			}
			out := d.OutEdges(g, graph.NodeID(u))
			if len(out) == 0 {
				continue
			}
			share := 1 / float64(len(out))
			for _, id := range out {
				phi[id] = share
			}
		}
		r.Phi[t] = phi
	}
	return r
}

// NewZero builds a routing with all-zero ratios (to be filled via SetRatios
// or direct assignment).
func NewZero(g *graph.Graph, dags []*dagx.DAG) *Routing {
	r := &Routing{G: g, DAGs: dags, Phi: make([][]float64, len(dags))}
	for t := range dags {
		r.Phi[t] = make([]float64, g.NumEdges())
	}
	return r
}

// Clone deep-copies the routing (sharing the graph and DAGs, which are
// immutable by convention).
func (r *Routing) Clone() *Routing {
	c := &Routing{G: r.G, DAGs: r.DAGs, Phi: make([][]float64, len(r.Phi))}
	for t := range r.Phi {
		c.Phi[t] = append([]float64(nil), r.Phi[t]...)
	}
	return c
}

// SetRatios assigns node u's splitting ratios toward destination t. The
// ratios must cover exactly u's DAG out-edges and sum to 1.
func (r *Routing) SetRatios(t graph.NodeID, u graph.NodeID, ratios map[graph.EdgeID]float64) error {
	d := r.DAGs[t]
	out := d.OutEdges(r.G, u)
	if len(out) != len(ratios) {
		return fmt.Errorf("pdrouting: node %d has %d DAG out-edges toward %d, got %d ratios", u, len(out), t, len(ratios))
	}
	sum := 0.0
	for _, id := range out {
		v, ok := ratios[id]
		if !ok {
			return fmt.Errorf("pdrouting: missing ratio for edge %d", id)
		}
		if v < -ratioTol {
			return fmt.Errorf("pdrouting: negative ratio %g on edge %d", v, id)
		}
		sum += v
	}
	if math.Abs(sum-1) > ratioTol {
		return fmt.Errorf("pdrouting: ratios at node %d toward %d sum to %g", u, t, sum)
	}
	for id, v := range ratios {
		r.Phi[t][id] = v
	}
	return nil
}

// Validate checks the PD-routing invariants of §III: ratios are
// non-negative, vanish outside the DAG, and sum to one at every
// non-destination node that has DAG out-edges.
func (r *Routing) Validate() error {
	for t, d := range r.DAGs {
		phi := r.Phi[t]
		for e, v := range phi {
			if v < -ratioTol {
				return fmt.Errorf("pdrouting: negative ratio %g (dest %d, edge %d)", v, t, e)
			}
			if !d.Member[e] && v > ratioTol {
				return fmt.Errorf("pdrouting: ratio %g on non-DAG edge %d (dest %d)", v, e, t)
			}
		}
		for u := 0; u < r.G.NumNodes(); u++ {
			if graph.NodeID(u) == d.Dst {
				continue
			}
			out := d.OutEdges(r.G, graph.NodeID(u))
			if len(out) == 0 {
				continue
			}
			sum := 0.0
			for _, id := range out {
				sum += phi[id]
			}
			if math.Abs(sum-1) > ratioTol {
				return fmt.Errorf("pdrouting: ratios at node %d toward %d sum to %g", u, t, sum)
			}
		}
	}
	return nil
}

// DestLoads propagates the per-source demand column toward destination t
// and returns the absolute flow placed on every edge. demandCol[v] is the
// demand from v to t; the destination's own entry is ignored.
func (r *Routing) DestLoads(t graph.NodeID, demandCol []float64) []float64 {
	return r.DestLoadsInto(t, demandCol,
		make([]float64, r.G.NumEdges()), make([]float64, r.G.NumNodes()))
}

// DestLoadsInto is DestLoads with caller-provided scratch, letting hot
// callers (the concurrent evaluator) recycle flow buffers through a pool
// instead of allocating per propagation. loads (len NumEdges) receives the
// result and is returned; inflow (len NumNodes) is overwritten scratch.
// Both must be zeroed on entry.
func (r *Routing) DestLoadsInto(t graph.NodeID, demandCol, loads, inflow []float64) []float64 {
	d := r.DAGs[t]
	phi := r.Phi[t]
	for v, dem := range demandCol {
		if graph.NodeID(v) != t {
			inflow[v] = dem
		}
	}
	for _, u := range d.Order {
		if u == t || inflow[u] == 0 {
			continue
		}
		for _, id := range d.OutEdges(r.G, u) {
			f := inflow[u] * phi[id]
			if f == 0 {
				continue
			}
			loads[id] += f
			inflow[r.G.Edge(id).To] += f
		}
	}
	return loads
}

// LinkLoads returns the total flow on every edge when routing demand matrix
// D (summing the per-destination propagations).
func (r *Routing) LinkLoads(D *demand.Matrix) []float64 {
	loads := make([]float64, r.G.NumEdges())
	for t := 0; t < r.G.NumNodes(); t++ {
		col := D.ToDestination(graph.NodeID(t))
		any := false
		for _, v := range col {
			if v > 0 {
				any = true
				break
			}
		}
		if !any {
			continue
		}
		lt := r.DestLoads(graph.NodeID(t), col)
		for e := range loads {
			loads[e] += lt[e]
		}
	}
	return loads
}

// MaxUtilization returns MxLU(φ, D) = max_e load(e)/c_e (§III).
func (r *Routing) MaxUtilization(D *demand.Matrix) float64 {
	loads := r.LinkLoads(D)
	mx := 0.0
	for e, l := range loads {
		u := l / r.G.Edge(graph.EdgeID(e)).Capacity
		if u > mx {
			mx = u
		}
	}
	return mx
}

// ParallelMaxUtilization is MaxUtilization with the per-destination
// propagations fanned across a worker pool and flow buffers recycled
// through the given pools (edgeBuf sized NumEdges, nodeBuf sized NumNodes).
// Per-destination load vectors land in index-addressed slots and are
// summed serially in destination order before the max, so the value is
// bit-identical to MaxUtilization for any worker count.
func (r *Routing) ParallelMaxUtilization(D *demand.Matrix, workers int, edgeBuf, nodeBuf *par.Pool) float64 {
	n := r.G.NumNodes()
	perDest := make([][]float64, n)
	par.For(workers, n, func(t int) {
		col := D.ToDestination(graph.NodeID(t))
		active := false
		for _, v := range col {
			if v > 0 {
				active = true
				break
			}
		}
		if !active {
			return
		}
		loads := edgeBuf.Get()
		inflow := nodeBuf.Get()
		r.DestLoadsInto(graph.NodeID(t), col, loads, inflow)
		nodeBuf.Put(inflow)
		perDest[t] = loads
	})
	total := edgeBuf.Get()
	defer edgeBuf.Put(total)
	for t := 0; t < n; t++ {
		lt := perDest[t]
		if lt == nil {
			continue
		}
		for e := range total {
			total[e] += lt[e]
		}
		edgeBuf.Put(lt)
	}
	mx := 0.0
	for e, l := range total {
		if u := l / r.G.Edge(graph.EdgeID(e)).Capacity; u > mx {
			mx = u
		}
	}
	return mx
}

// ExpectedHops returns the expected path length, in hops, of s→t traffic:
// Σ_e f_st(tail(e))·φ_t(e), the load one unit of s→t demand places on every
// DAG edge, summed in topological order. Fig. 11's stretch metric divides
// this by the ECMP expected hop count.
func (r *Routing) ExpectedHops(s, t graph.NodeID) float64 {
	if s == t {
		return 0
	}
	col := make([]float64, r.G.NumNodes())
	col[s] = 1
	loads := r.DestLoads(t, col)
	d := r.DAGs[t]
	hops := 0.0
	for _, u := range d.Order {
		for _, id := range d.OutEdges(r.G, u) {
			hops += loads[id]
		}
	}
	return hops
}

// LoadCoeffs returns, for destination t, the coefficient matrix
// C[s][e] = f_st(tail(e))·φ_t(e): the load that one unit of s→t demand
// places on edge e. The worst-case-demand adversary exploits the linearity
// load_t(e, D) = Σ_s d_st·C[s][e].
func (r *Routing) LoadCoeffs(t graph.NodeID) [][]float64 {
	n := r.G.NumNodes()
	C := make([][]float64, n)
	col := make([]float64, n)
	inflow := make([]float64, n)
	for s := range C {
		C[s] = make([]float64, r.G.NumEdges())
		if graph.NodeID(s) == t {
			continue
		}
		col[s] = 1
		clear(inflow)
		r.DestLoadsInto(t, col, C[s], inflow)
		col[s] = 0
	}
	return C
}

// FromFlowSet converts one flow vector per destination (flows[t], as a
// multicommodity-flow solve returns them) into a routing over dags. A
// destination whose flow vector is nil — no demand toward it — keeps the
// uniform split.
func FromFlowSet(g *graph.Graph, dags []*dagx.DAG, flows [][]float64) (*Routing, error) {
	r := NewZero(g, dags)
	uniform := Uniform(g, dags)
	for t := range flows {
		if flows[t] == nil {
			r.Phi[t] = uniform.Phi[t]
			continue
		}
		phi, err := FromFlows(g, dags[t], flows[t])
		if err != nil {
			return nil, err
		}
		r.Phi[t] = phi
	}
	return r, nil
}

// FromFlows converts a per-destination flow vector (absolute flow on each
// edge, supported on the DAG) into splitting ratios. Nodes with zero
// outgoing flow fall back to a uniform split over their DAG out-edges so
// the routing stays total. The flow's support must lie within the DAG.
func FromFlows(g *graph.Graph, d *dagx.DAG, flows []float64) ([]float64, error) {
	phi := make([]float64, g.NumEdges())
	for e, f := range flows {
		if f > 1e-12 && !d.Member[e] {
			return nil, fmt.Errorf("pdrouting: flow %g on edge %d outside the DAG", f, e)
		}
	}
	for u := 0; u < g.NumNodes(); u++ {
		if graph.NodeID(u) == d.Dst {
			continue
		}
		out := d.OutEdges(g, graph.NodeID(u))
		if len(out) == 0 {
			continue
		}
		total := 0.0
		for _, id := range out {
			total += flows[id]
		}
		if total > 1e-12 {
			for _, id := range out {
				phi[id] = flows[id] / total
			}
		} else {
			share := 1 / float64(len(out))
			for _, id := range out {
				phi[id] = share
			}
		}
	}
	return phi, nil
}
