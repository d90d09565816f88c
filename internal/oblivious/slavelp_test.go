package oblivious

import (
	"context"
	"math"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/lp"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/topo"
)

// slaveLP is the Appendix-C worst-case-demand LP, the exact adversary that
// PerfExact's cutting planes replaced, kept as their oracle. It is built
// once per routing evaluation: the constraint rows (flow conservation,
// capacities, box cone) are identical for every target link and only the
// objective row changes, so the per-link loop mutates the objective in place
// and warm-starts each solve from the previous link's optimal basis.
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
func (sl *slaveLP) setObjective(ev *Evaluator, coeff []float64, targetEdge int) {
	for _, v := range sl.objSet {
		sl.model.SetObjective(v, 0)
	}
	sl.objSet = sl.objSet[:0]
	n := ev.G.NumNodes()
	ce := ev.G.Edge(graph.EdgeID(targetEdge)).Capacity
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if a := coeff[targetEdge*n*n+s*n+t]; sl.dVar[s][t] >= 0 && a > 0 {
				sl.model.SetObjective(sl.dVar[s][t], a/ce)
				sl.objSet = append(sl.objSet, sl.dVar[s][t])
			}
		}
	}
}

// slavePerf is PERF(r, Box) by the slave LP: for every link, maximize its
// utilization over all matrices D in the cone of the box that are routable
// within the DAGs without exceeding capacities (OPTDAG(D) ≤ 1); the maximum
// over links is PERF.
func slavePerf(ev *Evaluator, r *pdrouting.Routing) (float64, error) {
	g := ev.G
	n := g.NumNodes()
	coeff := r.LoadCoeffs(nil)
	actives := make([]bool, n) // destinations that can receive demand
	for t := 0; t < n; t++ {
		for s := 0; s < n; s++ {
			if s != t && ev.Box.Max.At(graph.NodeID(s), graph.NodeID(t)) > 0 {
				actives[t] = true
			}
		}
	}
	sl := ev.buildSlaveLP(actives)
	perf := math.Inf(-1)
	var basis *lp.Basis
	for e := 0; e < g.NumEdges(); e++ {
		sl.setObjective(ev, coeff, e)
		sol, err := sl.model.Solve(context.Background(), &lp.SolveOptions{Basis: basis})
		if err != nil {
			return 0, err
		}
		if sol.Status == lp.Optimal {
			basis = sol.Basis
			perf = max(perf, sol.Objective)
		}
	}
	return perf, nil
}

// slaveEvaluator builds an evaluator whose uncertainty box keeps only
// demand pairs into a handful of destinations, so the dense oracle stays
// tractable on the 30+ node corpus topologies while the slave-LP rows keep
// their full structure.
func slaveEvaluator(t *testing.T, name string, nDests int) *Evaluator {
	t.Helper()
	g, err := topo.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	base := demand.Gravity(g, 1)
	keep := make(map[int]bool, nDests)
	for i := 0; i < nDests; i++ {
		keep[i*n/nDests] = true
	}
	for s := 0; s < n; s++ {
		for tt := 0; tt < n; tt++ {
			if !keep[tt] {
				base.D[s*n+tt] = 0
			}
		}
	}
	box := demand.MarginBox(base, 2)
	dags := dagx.BuildAll(g, dagx.Augmented)
	return NewEvaluator(g, dags, box, EvalConfig{Samples: 2, Seed: 3})
}

// TestSlaveLPSparseDenseParityCorpus solves the oracle's slave-LP
// formulation of every corpus topology with the per-link warm-start chain on
// the shared Model and certifies each link's optimum with lp's Check against
// the solve's row duals.
func TestSlaveLPSparseDenseParityCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep in -short mode")
	}
	for _, name := range topo.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ev := slaveEvaluator(t, name, 3)
			g := ev.G
			n := g.NumNodes()
			r := ECMPOnDAGs(g, ev.DAGs)
			coeff := r.LoadCoeffs(nil)
			actives := make([]bool, n)
			for tt := 0; tt < n; tt++ {
				for s := 0; s < n; s++ {
					if s != tt && ev.Box.Max.At(graph.NodeID(s), graph.NodeID(tt)) > 0 {
						actives[tt] = true
					}
				}
			}
			sl := ev.buildSlaveLP(actives)
			var basis *lp.Basis
			for e := 0; e < g.NumEdges(); e++ {
				sl.setObjective(ev, coeff, e)
				sol, err := sl.model.Solve(context.Background(), &lp.SolveOptions{Basis: basis})
				if err != nil {
					t.Fatalf("edge %d: %v", e, err)
				}
				if sol.Status != lp.Optimal {
					t.Fatalf("edge %d: status %v", e, sol.Status)
				}
				basis = sol.Basis
				if err := sl.model.Check(sol.X, sl.model.RowDuals()); err != nil {
					t.Fatalf("edge %d: optimum %.17g not certified: %v", e, sol.Objective, err)
				}
			}
		})
	}
}
