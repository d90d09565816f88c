package mcf

import (
	"math"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/lp"
	"github.com/coyote-te/coyote/internal/topo"
)

// restrictDestinations zeroes every demand column except the given
// destinations: the same OPTDAG row and column structure over fewer active
// destinations, which keeps randomized kernel and RHS-edit tests small on
// the big corpus topologies.
func restrictDestinations(D *demand.Matrix, dests ...graph.NodeID) *demand.Matrix {
	keep := make(map[graph.NodeID]bool, len(dests))
	for _, t := range dests {
		keep[t] = true
	}
	out := demand.NewMatrix(D.N)
	for s := 0; s < D.N; s++ {
		for t := 0; t < D.N; t++ {
			if keep[graph.NodeID(t)] {
				out.D[s*D.N+t] = D.D[s*D.N+t]
			}
		}
	}
	return out
}

// TestExactSparseDenseParityCorpus certifies the exact OPTDAG optimum of
// every corpus topology under its full gravity matrix — unrestricted (full
// multicommodity) and DAG-restricted: the MLU and flows Solve returns, put
// back into the model's variables, must pass lp's Check with the solve's
// row duals, and a warm-started re-solve must reproduce the optimum.
func TestExactSparseDenseParityCorpus(t *testing.T) {
	for _, name := range topo.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g, err := topo.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			D := demand.Gravity(g, 1)
			dags := dagx.BuildAll(g, dagx.Augmented)
			for _, tc := range []struct {
				label string
				dags  []*dagx.DAG
			}{{"free", nil}, {"in-dag", dags}} {
				mm := NewMinMLUModel(g, tc.dags, D)
				mlu, flows, basis, err := mm.Solve(nil)
				if err != nil {
					t.Fatalf("%s: %v", tc.label, err)
				}
				if err := mm.Model.Check(mm.point(mlu, flows), mm.Model.RowDuals()); err != nil {
					t.Fatalf("%s: MLU %.17g not certified: %v", tc.label, mlu, err)
				}
				// Warm re-solve of the identical instance: must accept the
				// basis and land on the same optimum (same vertex, so only
				// round-off separates the two values).
				warmMLU, _, _, err := NewMinMLUModel(g, tc.dags, D).Solve(&lp.SolveOptions{Basis: basis})
				if err != nil {
					t.Fatalf("%s warm: %v", tc.label, err)
				}
				if math.Abs(warmMLU-mlu) > 1e-9*(1+mlu) {
					t.Fatalf("%s: warm MLU %.17g differs from cold %.17g", tc.label, warmMLU, mlu)
				}
			}
		})
	}
}

// point is the LP variable vector holding the MLU and flows Solve returned.
func (mm *MinMLUModel) point(mlu float64, flows [][]float64) []float64 {
	x := make([]float64, mm.Model.NumVars())
	x[mm.Alpha] = mlu
	for t, vars := range mm.VarOf {
		for e, v := range vars {
			if v >= 0 {
				x[v] = flows[t][e]
			}
		}
	}
	return x
}

// BenchmarkExactOPT times exact OPTDAG (min-MLU within the augmented DAGs,
// gravity demands) on the largest corpus topology, BICS (33 nodes, 96
// directed edges), from the all-logical basis.
func BenchmarkExactOPT(b *testing.B) {
	g, err := topo.Load("BICS")
	if err != nil {
		b.Fatal(err)
	}
	D := demand.Gravity(g, 1)
	dags := dagx.BuildAll(g, dagx.Augmented)
	for i := 0; i < b.N; i++ {
		if _, _, _, err := NewMinMLUModel(g, dags, D).Solve(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExactWarmBasisAcrossDemands re-solves the same topology under a
// drifting demand matrix with the previous basis: the optima must match a
// cold solve exactly in value.
func TestExactWarmBasisAcrossDemands(t *testing.T) {
	g, err := topo.Load("NSF")
	if err != nil {
		t.Fatal(err)
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	base := demand.Gravity(g, 1)
	scales := []float64{1, 1.15, 0.9, 1.3}
	var carriedBasis *lp.Basis
	for _, s := range scales {
		D := base.Clone().Scale(s)
		coldMLU, _, _, err := NewMinMLUModel(g, dags, D).Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		warmMLU, _, nb, err := NewMinMLUModel(g, dags, D).Solve(&lp.SolveOptions{Basis: carriedBasis})
		if err != nil {
			t.Fatal(err)
		}
		tol := 1e-9 * (1 + coldMLU)
		if math.Abs(warmMLU-coldMLU) > tol {
			t.Fatalf("scale %g: warm MLU %.12g, cold %.12g", s, warmMLU, coldMLU)
		}
		carriedBasis = nb
	}
}
