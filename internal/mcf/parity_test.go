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
// destinations, keeping the OPTDAG formulation representative while
// bounding the dense oracle's cost on the big corpus topologies.
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

// TestExactSparseDenseParityCorpus proves the sparse revised simplex and
// the dense tableau oracle agree on the OPTDAG formulation of every corpus
// topology — both unrestricted (full multicommodity) and DAG-restricted —
// and that a warm-started re-solve reproduces the optimum bit-for-bit
// deterministically.
func TestExactSparseDenseParityCorpus(t *testing.T) {
	for _, name := range topo.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g, err := topo.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			n := g.NumNodes()
			// Four spread-out destinations keep the dense oracle tractable
			// on the 30+ node topologies while exercising the same row and
			// column structure.
			D := restrictDestinations(demand.Gravity(g, 1),
				0, graph.NodeID(n/3), graph.NodeID(2*n/3), graph.NodeID(n-1))
			dags := dagx.BuildAll(g, dagx.Augmented)
			for _, tc := range []struct {
				label string
				dags  []*dagx.DAG
			}{{"free", nil}, {"in-dag", dags}} {
				sparseMLU, _, basis, err := NewMinMLUModel(g, tc.dags, D).Solve(nil)
				if err != nil {
					t.Fatalf("%s sparse: %v", tc.label, err)
				}
				denseMLU, _, err := MinMLUExactDense(g, tc.dags, D)
				if err != nil {
					t.Fatalf("%s dense: %v", tc.label, err)
				}
				tol := 1e-6 * (1 + denseMLU)
				if math.Abs(sparseMLU-denseMLU) > tol {
					t.Fatalf("%s: sparse MLU %.12g, dense %.12g", tc.label, sparseMLU, denseMLU)
				}
				// Warm re-solve of the identical instance: must accept the
				// basis and land on the same optimum (same vertex, so only
				// round-off separates the two values).
				warmMLU, _, _, err := NewMinMLUModel(g, tc.dags, D).Solve(&lp.SolveOptions{Basis: basis})
				if err != nil {
					t.Fatalf("%s warm: %v", tc.label, err)
				}
				if math.Abs(warmMLU-sparseMLU) > 1e-9*(1+sparseMLU) {
					t.Fatalf("%s: warm MLU %.17g differs from cold %.17g", tc.label, warmMLU, sparseMLU)
				}
			}
		})
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
