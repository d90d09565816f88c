// Dual certificates for scenario normalizations (the role Theorem 5's LP
// duals play in the paper): every finite-scenario optimization divides
// link loads by OPTDAG(D), so a wrong normalization silently skews the
// whole objective. CertifyNorm re-derives the min-MLU optimum on the
// one min-MLU formulation (mcf.NewMinMLUModel) and machine-checks it against
// its own LP dual from first principles (mcf.CheckDual) —
// a certificate that is verified independently of the solver's internals,
// so a bug in the simplex cannot self-certify.
package gpopt

import (
	"fmt"
	"math"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/lp"
	"github.com/coyote-te/coyote/internal/mcf"
)

// Certificate is a verified optimality proof for an OPTDAG value.
//
// The min-MLU primal is
//
//	min α   s.t.  out−in flow conservation = d_vt,  Σ_t f_te ≤ α·c_e
//
// whose dual reads: max Σ d_vt·w_tv subject to w_t,from − w_t,to ≤ z_e on
// every DAG edge, Σ z_e·c_e ≤ 1, z ≥ 0 (w_tt ≡ 0). Weak duality makes any
// dual-feasible (w, z) a lower bound on OPTDAG; the certificate exhibits
// one whose objective meets the primal value, proving optimality.
type Certificate struct {
	Objective float64 // primal optimum (OPTDAG(D))
	DualBound float64 // Σ d·w of the verified dual-feasible point
	Gap       float64 // |Objective − DualBound| / (1 + |Objective|)
}

// certTol is the relative duality-gap and dual-feasibility tolerance.
const certTol = 1e-6

// CertifyNorm computes OPTDAG(D) for the given DAGs on the sparse LP core
// and verifies the result with an independently checked dual certificate.
// It returns an error if the LP is not optimal (e.g. unroutable demand) or
// if the dual point fails feasibility or leaves a duality gap — either
// means the normalization cannot be trusted.
func CertifyNorm(g *graph.Graph, dags []*dagx.DAG, D *demand.Matrix) (*Certificate, error) {
	n := g.NumNodes()
	mm := mcf.NewMinMLUModel(g, dags, D)
	sol, err := mm.Model.Solve(nil)
	if err != nil {
		return nil, fmt.Errorf("gpopt: certificate LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("gpopt: certificate LP is %v", sol.Status)
	}
	if sol.Stats.DenseFallback || sol.Duals == nil {
		// The dense oracle reports no duals; a fallback here means the
		// sparse engine failed on this instance — the exact situation a
		// certificate must refuse to paper over.
		return nil, fmt.Errorf("gpopt: certificate LP has no dual values (dense fallback: %v)", sol.Stats.DenseFallback)
	}

	// Extract the dual point: w from the conservation rows, z = −y from
	// the ≤-capacity rows (minimization convention: a binding upper row
	// carries y ≤ 0).
	z := make([]float64, g.NumEdges())
	for e, r := range mm.CapRow {
		if r >= 0 {
			z[e] = -sol.Duals[r]
		}
	}
	active := make([]bool, n)
	for t := range active {
		active[t] = mm.DemandRow[t] != nil
	}
	w := func(v, t graph.NodeID) float64 {
		if v == t {
			return 0
		}
		return sol.Duals[mm.DemandRow[t][v]]
	}
	if err := mcf.CheckDual(g, dags, active, z, w, certTol); err != nil {
		return nil, fmt.Errorf("gpopt: %w", err)
	}
	dualObj := 0.0
	for t := 0; t < n; t++ {
		for v := 0; v < n && active[t]; v++ {
			if d := D.D[v*n+t]; d > 0 {
				dualObj += d * w(graph.NodeID(v), graph.NodeID(t))
			}
		}
	}
	gap := math.Abs(sol.Objective-dualObj) / (1 + math.Abs(sol.Objective))
	if gap > certTol {
		return nil, fmt.Errorf("gpopt: duality gap %g (primal %g, dual %g)", gap, sol.Objective, dualObj)
	}
	return &Certificate{Objective: sol.Objective, DualBound: dualObj, Gap: gap}, nil
}

// CertifyScenarios certifies the normalization constant of every scenario
// in the finite optimization set against a fresh, dual-verified OPTDAG
// recomputation. It returns the index of the first scenario whose Norm
// deviates from its certified optimum by more than rtol, or −1 if all
// pass. Scenarios normalized by the FPTAS (whose Norm may legitimately sit
// within (1+eps) of optimal) should be checked with rtol ≥ the eps used.
func CertifyScenarios(g *graph.Graph, dags []*dagx.DAG, D []*demand.Matrix, norms []float64, rtol float64) (int, error) {
	if len(D) != len(norms) {
		return -1, fmt.Errorf("gpopt: %d matrices but %d norms", len(D), len(norms))
	}
	for i := range D {
		cert, err := CertifyNorm(g, dags, D[i])
		if err != nil {
			return i, err
		}
		if math.Abs(cert.Objective-norms[i]) > rtol*(1+math.Abs(cert.Objective)) {
			return i, fmt.Errorf("gpopt: scenario %d normalized by %g but certified optimum is %g",
				i, norms[i], cert.Objective)
		}
	}
	return -1, nil
}
