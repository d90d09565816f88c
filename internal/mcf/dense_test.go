package mcf

import (
	"fmt"
	"math"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/lp"
	"github.com/coyote-te/coyote/internal/topo"
)

// MinMLUExactDense solves the identical formulation on the dense
// full-tableau reference solver. It is the parity oracle for the sparse
// engine (see mcf parity tests and BenchmarkExactOPT) and is not used on
// any production path.
func MinMLUExactDense(g *graph.Graph, dags []*dagx.DAG, D *demand.Matrix) (float64, [][]float64, error) {
	n := g.NumNodes()
	if D.Total() == 0 {
		return 0, make([][]float64, n), nil
	}
	prob := lp.NewProblem(lp.Minimize)
	alpha := prob.AddVariable()
	prob.SetObjective(alpha, 1)

	varOf := make([][]int, n)
	active := make([]bool, n)
	for t := 0; t < n; t++ {
		col := D.ToDestination(graph.NodeID(t))
		for _, d := range col {
			if d > 0 {
				active[t] = true
				break
			}
		}
		if !active[t] {
			continue
		}
		allowed := allowedEdges(g, dags, graph.NodeID(t))
		varOf[t] = make([]int, g.NumEdges())
		for e := range varOf[t] {
			if allowed[e] {
				varOf[t][e] = prob.AddVariable()
			} else {
				varOf[t][e] = -1
			}
		}
		for v := 0; v < n; v++ {
			if v == t {
				continue
			}
			var terms []lp.Term
			for _, id := range g.Out(graph.NodeID(v)) {
				if varOf[t][id] >= 0 {
					terms = append(terms, lp.Term{Var: varOf[t][id], Coeff: 1})
				}
			}
			for _, id := range g.In(graph.NodeID(v)) {
				if varOf[t][id] >= 0 {
					terms = append(terms, lp.Term{Var: varOf[t][id], Coeff: -1})
				}
			}
			prob.AddConstraint(terms, lp.EQ, col[v])
		}
	}
	for _, e := range g.Edges() {
		terms := []lp.Term{{Var: alpha, Coeff: -e.Capacity}}
		for t := 0; t < n; t++ {
			if active[t] && varOf[t][e.ID] >= 0 {
				terms = append(terms, lp.Term{Var: varOf[t][e.ID], Coeff: 1})
			}
		}
		if len(terms) > 1 {
			prob.AddConstraint(terms, lp.LE, 0)
		}
	}
	sol, err := prob.Solve()
	if err != nil {
		return 0, nil, fmt.Errorf("mcf: %w", err)
	}
	if sol.Status != lp.Optimal {
		return math.Inf(1), nil, ErrUnroutable
	}
	flows := make([][]float64, n)
	for t := 0; t < n; t++ {
		if !active[t] {
			continue
		}
		flows[t] = make([]float64, g.NumEdges())
		for e := range flows[t] {
			if varOf[t][e] >= 0 {
				flows[t][e] = sol.X[varOf[t][e]]
			}
		}
	}
	return sol.Objective, flows, nil
}

// BenchmarkExactOPT is the sparse-core acceptance benchmark: exact OPTDAG
// (min-MLU within the augmented DAGs, gravity demands) on the largest
// corpus topology, BICS (33 nodes, 96 directed edges), solved by the
// sparse revised simplex versus the dense full-tableau reference. The
// sparse core is what lets ExactNodeLimit cover the entire corpus.
func BenchmarkExactOPT(b *testing.B) {
	g, err := topo.Load("BICS")
	if err != nil {
		b.Fatal(err)
	}
	D := demand.Gravity(g, 1)
	dags := dagx.BuildAll(g, dagx.Augmented)
	b.Run("sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := MinMLUExactBasis(g, dags, D, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := MinMLUExactDense(g, dags, D); err != nil {
				b.Fatal(err)
			}
		}
	})
}
