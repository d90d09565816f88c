// Package lp is a self-contained linear-programming stack used wherever the
// paper relies on an external LP/convex solver (AMPL + MOSEK, §VI-A):
// computing demands-aware optima, the exact worst-case-demand adversary
// that stands in for Appendix C's "slave LP", and the dual certificates of
// Theorem 5.
//
// The package holds one engine and one verifier (DESIGN.md §7):
//
//   - Model is a sparse revised simplex: CSC constraint matrix,
//     Gilbert–Peierls LU basis factorization kept current by Forrest–Tomlin
//     updates (refactorized on an update cap, on growth, or when an update
//     fails its stability test), bounded variables and ranged rows (so
//     simple bounds never become rows), Dantzig pricing with a Bland's-rule
//     anti-cycling fallback, row duals, and warm starts from an exported
//     Basis. Every solver client — OPTDAG (internal/mcf), the exact
//     adversary's cut master (internal/oblivious) — builds against it, and a
//     numerical failure is returned as an error.
//   - Model.Check certifies a primal/dual pair against the model's own rows,
//     bounds and costs (feasibility, reduced-cost signs, complementary
//     slackness), never against the engine's factors, so a test can prove an
//     optimum without a second solver.
//
// The dense full-tableau simplex and the MPS reader/writer are test fixtures
// of this package (dense_test.go, mpsio_test.go): no product path needs a
// second engine or a file format.
package lp

import "errors"

// Sense selects minimization or maximization.
type Sense int8

// Objective senses.
const (
	Minimize Sense = iota
	Maximize
)

// Status describes the outcome of Solve.
type Status int8

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return "unknown"
}

// Term is one coefficient of a sparse constraint or objective row.
type Term struct {
	Var   int
	Coeff float64
}

// Solution is the result of a Model.Solve: status, objective and primal
// point, the final basis for warm starts, and per-solve statistics
// (Model.RowDuals reads the vertex's duals).
type Solution struct {
	Status    Status
	Objective float64   // objective value in the problem's own sense
	X         []float64 // primal values, one per variable (valid when Status == Optimal)

	// Basis is the optimal basis; feed it back through SolveOptions.Basis
	// to warm-start a related solve.
	Basis *Basis
	// Stats describes the engine's effort.
	Stats SolveStats
}

// ErrIterationLimit is returned when the simplex fails to converge within
// its iteration budget, which indicates severe degeneracy or numerical
// trouble.
var ErrIterationLimit = errors.New("lp: simplex iteration limit exceeded")
