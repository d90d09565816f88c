package oblivious

import (
	"context"
	"math"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/lp"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/pdrouting"
)

// slaveLP is the Appendix-C worst-case-demand LP, built ONCE per routing
// evaluation on the shared lp.Model builder: the constraint rows (flow
// conservation, capacities, box cone) are identical for every target link;
// only the objective row changes. The per-link loop therefore mutates the
// objective in place and warm-starts each solve from the previous link's
// optimal basis — the previous vertex stays primal feasible under an
// objective-only change, so successive solves skip phase 1 entirely.
type slaveLP struct {
	model  *lp.Model
	lambda int
	dVar   [][]int
	objSet []int // variables with a nonzero objective, for cheap resets
}

// buildSlaveLP constructs the rows shared by every target link: demands d
// routable within the DAGs without exceeding capacities (OPTDAG(D) ≤ 1),
// d in the cone of the uncertainty box.
func (ev *Evaluator) buildSlaveLP(actives []bool) *slaveLP {
	g := ev.G
	n := g.NumNodes()
	nE := g.NumEdges()
	prob := lp.NewModel(lp.Maximize)
	lambda := prob.AddVars(1)

	// Demand variables.
	dVar := make([][]int, n)
	for s := 0; s < n; s++ {
		dVar[s] = make([]int, n)
		for t := 0; t < n; t++ {
			dVar[s][t] = -1
			if s != t && ev.Box.Max.At(graph.NodeID(s), graph.NodeID(t)) > 0 {
				dVar[s][t] = prob.AddVars(1)
			}
		}
	}
	// In-DAG flow variables per active destination.
	gVar := make([][]int, n)
	for t := 0; t < n; t++ {
		if !actives[t] {
			continue
		}
		gVar[t] = make([]int, nE)
		for e := 0; e < nE; e++ {
			gVar[t][e] = -1
			if ev.DAGs[t].Member[e] {
				gVar[t][e] = prob.AddVars(1)
			}
		}
	}
	// Conservation: out - in = d_vt at every v ≠ t.
	for t := 0; t < n; t++ {
		if !actives[t] {
			continue
		}
		for v := 0; v < n; v++ {
			if v == t {
				continue
			}
			var terms []lp.Term
			for _, id := range g.Out(graph.NodeID(v)) {
				if gVar[t][id] >= 0 {
					terms = append(terms, lp.Term{Var: gVar[t][id], Coeff: 1})
				}
			}
			for _, id := range g.In(graph.NodeID(v)) {
				if gVar[t][id] >= 0 {
					terms = append(terms, lp.Term{Var: gVar[t][id], Coeff: -1})
				}
			}
			if dVar[v][t] >= 0 {
				terms = append(terms, lp.Term{Var: dVar[v][t], Coeff: -1})
			}
			prob.AddEQ(terms, 0)
		}
	}
	// Capacities.
	for e := 0; e < nE; e++ {
		var terms []lp.Term
		for t := 0; t < n; t++ {
			if actives[t] && gVar[t] != nil && gVar[t][e] >= 0 {
				terms = append(terms, lp.Term{Var: gVar[t][e], Coeff: 1})
			}
		}
		if len(terms) > 0 {
			prob.AddLE(terms, g.Edge(graph.EdgeID(e)).Capacity)
		}
	}
	// Box cone: λ·min ≤ d ≤ λ·max.
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if dVar[s][t] < 0 {
				continue
			}
			lo := ev.Box.Min.At(graph.NodeID(s), graph.NodeID(t))
			hi := ev.Box.Max.At(graph.NodeID(s), graph.NodeID(t))
			if lo > 0 {
				prob.AddGE([]lp.Term{{Var: dVar[s][t], Coeff: 1}, {Var: lambda, Coeff: -lo}}, 0)
			}
			prob.AddLE([]lp.Term{{Var: dVar[s][t], Coeff: 1}, {Var: lambda, Coeff: -hi}}, 0)
		}
	}
	return &slaveLP{model: prob, lambda: lambda, dVar: dVar}
}

// setObjective points the LP at one target link: maximize that link's
// utilization under the routing's load coefficients. The previous
// objective is zeroed first (the row set never changes).
func (sl *slaveLP) setObjective(ev *Evaluator, coeff [][][]float64, targetEdge int) {
	for _, v := range sl.objSet {
		sl.model.SetObjective(v, 0)
	}
	sl.objSet = sl.objSet[:0]
	n := ev.G.NumNodes()
	ce := ev.G.Edge(graph.EdgeID(targetEdge)).Capacity
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if sl.dVar[s][t] >= 0 && coeff[t][s][targetEdge] > 0 {
				sl.model.SetObjective(sl.dVar[s][t], coeff[t][s][targetEdge]/ce)
				sl.objSet = append(sl.objSet, sl.dVar[s][t])
			}
		}
	}
}

// PerfExact computes the exact worst-case performance ratio of routing r
// over the evaluator's uncertainty set by solving, for every link, the
// "slave LP" of Appendix C: maximize the link's utilization over all
// demand matrices D in the cone of the box that are routable within the
// DAGs without exceeding capacities (i.e. OPTDAG(D) ≤ 1). The maximum over
// links is PERF(r, Box).
//
// The LP has Θ(n² + n·|E|) variables; the sparse core plus the
// basis chain across the per-link solves (the rows are shared — only the
// objective moves) keep it viable well beyond the old dense limits, but
// the sampling adversary (Perf) remains the production path.
//
// When ctx carries an obs.Tracer it records one oblivious.perf_exact span
// for the whole per-link sweep plus one nested lp.solve span per slave LP
// (the per-link solves run serially on the warm-start chain, so the spans
// nest cleanly). Observational only.
func (ev *Evaluator) PerfExact(ctx context.Context, r *pdrouting.Routing) (Result, error) {
	return ev.perfExact(ctx, r, true)
}

func (ev *Evaluator) perfExact(ctx context.Context, r *pdrouting.Routing, warmChain bool) (Result, error) {
	ctx, span := obs.StartSpan(ctx, "oblivious.perf_exact")
	defer span.End()
	g := ev.G
	n := g.NumNodes()
	nE := g.NumEdges()

	coeff := make([][][]float64, n)
	actives := make([]bool, n) // destinations that can receive demand
	for t := 0; t < n; t++ {
		coeff[t] = r.LoadCoeffs(graph.NodeID(t))
		for s := 0; s < n; s++ {
			if s != t && ev.Box.Max.At(graph.NodeID(s), graph.NodeID(t)) > 0 {
				actives[t] = true
			}
		}
	}

	sl := ev.buildSlaveLP(actives)
	best := Result{Ratio: math.Inf(-1)}
	var basis *lp.Basis
	for targetEdge := 0; targetEdge < nE; targetEdge++ {
		sl.setObjective(ev, coeff, targetEdge)
		sol, err := sl.model.Solve(ctx, &lp.SolveOptions{Basis: basis})
		if err != nil {
			return Result{}, err
		}
		if sol.Status != lp.Optimal {
			continue
		}
		if warmChain {
			basis = sol.Basis
		}
		if sol.Objective > best.Ratio {
			D := demand.NewMatrix(n)
			for s := 0; s < n; s++ {
				for t := 0; t < n; t++ {
					if sl.dVar[s][t] >= 0 {
						D.D[s*n+t] = sol.X[sl.dVar[s][t]]
					}
				}
			}
			best = Result{Ratio: sol.Objective, WorstDM: D, MxLU: sol.Objective, Norm: 1}
		}
	}
	span.Attr("links", nE).Attr("warm_chain", warmChain).Attr("ratio", best.Ratio)
	return best, nil
}
