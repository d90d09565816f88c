// Package lp is a self-contained linear-programming stack used wherever the
// paper relies on an external LP/convex solver (AMPL + MOSEK, §VI-A):
// computing demands-aware optima, the exact worst-case-demand adversary
// that stands in for Appendix C's "slave LP", and the dual certificates of
// Theorem 5.
//
// The package holds one engine and the tests' oracle (DESIGN.md §7):
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
//   - Problem, the original dense full-tableau two-phase simplex for
//     min/max cᵀx s.t. aᵢᵀx {≤,=,≥} bᵢ, x ≥ 0, is the tests' reference
//     oracle: randomized and corpus parity tests cross-validate every
//     sparse optimum against it (Model.SolveDense bridges the two forms).
//     No production path calls it.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Rel is a constraint relation.
type Rel int8

// Constraint relations.
const (
	LE Rel = iota // aᵀx ≤ b
	GE            // aᵀx ≥ b
	EQ            // aᵀx = b
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

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

type row struct {
	terms []Term
	rel   Rel
	rhs   float64
}

// Problem accumulates variables, an objective, and constraints. The zero
// value is not usable; create problems with NewProblem.
type Problem struct {
	sense Sense
	nvars int
	obj   []float64
	rows  []row
}

// NewProblem returns an empty problem with the given objective sense.
func NewProblem(sense Sense) *Problem {
	return &Problem{sense: sense}
}

// AddVariable adds a non-negative variable and returns its index.
func (p *Problem) AddVariable() int {
	p.nvars++
	p.obj = append(p.obj, 0)
	return p.nvars - 1
}

// SetObjective sets the objective coefficient of variable v.
func (p *Problem) SetObjective(v int, coeff float64) {
	p.obj[v] = coeff
}

// AddConstraint appends a constraint Σ terms {rel} rhs. Terms may repeat a
// variable; coefficients accumulate.
func (p *Problem) AddConstraint(terms []Term, rel Rel, rhs float64) {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= p.nvars {
			panic(fmt.Sprintf("lp: constraint references variable %d of %d", t.Var, p.nvars))
		}
	}
	p.rows = append(p.rows, row{terms: append([]Term(nil), terms...), rel: rel, rhs: rhs})
}

// Solution is the result of a solve — the dense Problem.Solve fills the
// first three fields; the sparse Model.Solve additionally reports the final
// basis for warm starts and per-solve statistics (Model.RowDuals reads the
// vertex's duals).
type Solution struct {
	Status    Status
	Objective float64   // objective value in the problem's own sense
	X         []float64 // primal values, one per variable (valid when Status == Optimal)

	// Basis is the optimal basis (Model.Solve only); feed it back through
	// SolveOptions.Basis to warm-start a related solve.
	Basis *Basis
	// Stats describes the sparse engine's effort (Model.Solve only).
	Stats SolveStats
}

// ErrIterationLimit is returned when the simplex fails to converge within
// its iteration budget, which indicates severe degeneracy or numerical
// trouble.
var ErrIterationLimit = errors.New("lp: simplex iteration limit exceeded")

const (
	pivTol  = 1e-9  // minimum magnitude of an acceptable pivot element
	zeroTol = 1e-9  // reduced-cost optimality tolerance
	feasTol = 1e-7  // phase-1 feasibility tolerance
	blandAt = 200   // consecutive non-improving iterations before Bland's rule
	iterMul = 60    // iteration budget multiplier over (m + n)
	minIter = 20000 // iteration budget floor
)

// Solve runs the two-phase simplex and returns the solution.
func (p *Problem) Solve() (*Solution, error) {
	m := len(p.rows)
	n := p.nvars
	if n == 0 {
		return &Solution{Status: Optimal, Objective: 0, X: nil}, nil
	}

	// Count slack and artificial columns.
	nslack := 0
	for _, r := range p.rows {
		if r.rel != EQ {
			nslack++
		}
	}
	// Column layout: [0,n) structural, [n, n+nslack) slack/surplus,
	// [n+nslack, ncols) artificial (at most one per row).
	nart := 0
	artOf := make([]int, m) // artificial column for row i, or -1
	slackOf := make([]int, m)
	for i := range artOf {
		artOf[i] = -1
		slackOf[i] = -1
	}

	// Build dense rows with RHS normalized non-negative.
	a := make([][]float64, m)
	b := make([]float64, m)
	si := 0
	for i, r := range p.rows {
		rel := r.rel
		rhs := r.rhs
		sign := 1.0
		if rhs < 0 {
			sign = -1
			rhs = -rhs
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		arow := make([]float64, n) // structural part; extended later
		for _, t := range r.terms {
			arow[t.Var] += sign * t.Coeff
		}
		a[i] = arow
		b[i] = rhs
		switch rel {
		case LE:
			slackOf[i] = n + si
			si++
		case GE:
			slackOf[i] = n + si // surplus, coefficient -1
			si++
			artOf[i] = 1 // placeholder; assigned below
		case EQ:
			artOf[i] = 1
		}
		p.rows[i].rel = r.rel // untouched; we worked on copies
	}
	// Assign artificial columns.
	ai := 0
	for i := range p.rows {
		if artOf[i] == 1 {
			artOf[i] = n + nslack + ai
			ai++
		}
	}
	nart = ai
	ncols := n + nslack + nart

	// Extend rows to full width and set slack/artificial coefficients.
	tab := make([][]float64, m)
	for i := range tab {
		full := make([]float64, ncols)
		copy(full, a[i])
		if s := slackOf[i]; s >= 0 {
			rel := effectiveRel(p.rows[i].rel, p.rows[i].rhs)
			if rel == LE {
				full[s] = 1
			} else {
				full[s] = -1
			}
		}
		if art := artOf[i]; art >= 0 {
			full[art] = 1
		}
		tab[i] = full
	}

	// Initial basis: slack for ≤ rows, artificial otherwise.
	basis := make([]int, m)
	for i := range basis {
		if artOf[i] >= 0 {
			basis[i] = artOf[i]
		} else {
			basis[i] = slackOf[i]
		}
	}

	s := &simplex{tab: tab, b: b, basis: basis, ncols: ncols, nstruct: n}

	// Phase 1: minimize sum of artificials.
	if nart > 0 {
		c1 := make([]float64, ncols)
		for i := range p.rows {
			if artOf[i] >= 0 {
				c1[artOf[i]] = 1
			}
		}
		s.setObjective(c1)
		if err := s.iterate(); err != nil {
			return nil, err
		}
		if s.objValue(c1) > feasTol {
			return &Solution{Status: Infeasible}, nil
		}
		// Drive remaining artificials out of the basis.
		isArt := func(col int) bool { return col >= n+nslack }
		for r := 0; r < len(s.basis); r++ {
			if !isArt(s.basis[r]) {
				continue
			}
			pivoted := false
			for j := 0; j < n+nslack; j++ {
				if math.Abs(s.tab[r][j]) > pivTol {
					s.pivot(r, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row: harmless, leave the artificial basic at 0
				// but forbid it from ever re-entering with value > 0 by
				// zeroing its row RHS (it already is ~0).
				s.b[r] = 0
			}
		}
		// Remove artificial columns from pricing by truncating.
		s.ncols = n + nslack
		for i := range s.tab {
			s.tab[i] = s.tab[i][:s.ncols]
		}
		for r, col := range s.basis {
			if col >= s.ncols {
				// Still-basic artificial on a redundant zero row; replace by
				// a fictitious column index that prices as never-entering.
				// We keep it by extending the tableau with a unit column.
				s.tab[r] = append(s.tab[r], 0)
				for rr := range s.tab {
					for len(s.tab[rr]) < s.ncols+1 {
						s.tab[rr] = append(s.tab[rr], 0)
					}
				}
				s.tab[r][s.ncols] = 1
				s.basis[r] = s.ncols
				s.ncols++
				s.frozen = append(s.frozen, s.ncols-1)
			}
		}
	}

	// Phase 2: real objective (internally always minimize).
	c2 := make([]float64, s.ncols)
	for j := 0; j < n; j++ {
		if p.sense == Minimize {
			c2[j] = p.obj[j]
		} else {
			c2[j] = -p.obj[j]
		}
	}
	s.setObjective(c2)
	if err := s.iterate(); err != nil {
		return nil, err
	}
	if s.unbounded {
		return &Solution{Status: Unbounded}, nil
	}

	x := make([]float64, n)
	for r, col := range s.basis {
		if col < n {
			x[col] = s.b[r]
		}
	}
	objVal := 0.0
	for j := 0; j < n; j++ {
		objVal += p.obj[j] * x[j]
	}
	return &Solution{Status: Optimal, Objective: objVal, X: x}, nil
}

// effectiveRel returns the relation after RHS sign normalization.
func effectiveRel(rel Rel, rhs float64) Rel {
	if rhs >= 0 {
		return rel
	}
	switch rel {
	case LE:
		return GE
	case GE:
		return LE
	}
	return EQ
}

// simplex is the full-tableau state shared by both phases.
type simplex struct {
	tab       [][]float64
	b         []float64
	basis     []int
	ncols     int
	nstruct   int
	z         []float64 // reduced costs
	c         []float64 // current phase costs
	unbounded bool
	frozen    []int // columns that must never enter (residual artificials)
}

// setObjective recomputes the reduced-cost row for cost vector c given the
// current basis (the tableau is kept in canonical form at all times).
func (s *simplex) setObjective(c []float64) {
	s.c = c
	s.z = make([]float64, s.ncols)
	copy(s.z, c)
	for r, col := range s.basis {
		cb := 0.0
		if col < len(c) {
			cb = c[col]
		}
		if cb == 0 {
			continue
		}
		for j := 0; j < s.ncols; j++ {
			s.z[j] -= cb * s.tab[r][j]
		}
	}
	s.unbounded = false
}

// objValue returns cᵀx_B for the current basic solution.
func (s *simplex) objValue(c []float64) float64 {
	v := 0.0
	for r, col := range s.basis {
		if col < len(c) {
			v += c[col] * s.b[r]
		}
	}
	return v
}

func (s *simplex) isFrozen(j int) bool {
	for _, f := range s.frozen {
		if f == j {
			return true
		}
	}
	return false
}

// iterate runs simplex pivots until optimality or unboundedness.
func (s *simplex) iterate() error {
	maxIter := iterMul * (len(s.basis) + s.ncols)
	if maxIter < minIter {
		maxIter = minIter
	}
	stall := 0
	lastObj := math.Inf(1)
	for iter := 0; iter < maxIter; iter++ {
		bland := stall > blandAt
		enter := s.chooseEntering(bland)
		if enter < 0 {
			return nil // optimal
		}
		leave := s.chooseLeaving(enter, bland)
		if leave < 0 {
			s.unbounded = true
			return nil
		}
		s.pivot(leave, enter)
		obj := s.objValue(s.c)
		if obj < lastObj-1e-12 {
			stall = 0
			lastObj = obj
		} else {
			stall++
		}
	}
	return ErrIterationLimit
}

// chooseEntering picks the entering column: Dantzig's most-negative reduced
// cost, or the lowest-index negative column under Bland's rule.
func (s *simplex) chooseEntering(bland bool) int {
	best := -1
	bestVal := -zeroTol
	for j := 0; j < s.ncols; j++ {
		if s.z[j] < bestVal && !s.isFrozen(j) {
			if bland {
				return j
			}
			best = j
			bestVal = s.z[j]
		}
	}
	return best
}

// chooseLeaving runs the minimum-ratio test for entering column e, breaking
// ties by the largest pivot magnitude (or lowest basis index under Bland).
func (s *simplex) chooseLeaving(e int, bland bool) int {
	bestRow := -1
	bestRatio := math.Inf(1)
	bestPivot := 0.0
	for r := range s.tab {
		ar := s.tab[r][e]
		if ar <= pivTol {
			continue
		}
		ratio := s.b[r] / ar
		switch {
		case ratio < bestRatio-1e-12:
			bestRow, bestRatio, bestPivot = r, ratio, ar
		case ratio <= bestRatio+1e-12:
			if bland {
				if bestRow < 0 || s.basis[r] < s.basis[bestRow] {
					bestRow, bestRatio, bestPivot = r, ratio, ar
				}
			} else if ar > bestPivot {
				bestRow, bestRatio, bestPivot = r, ratio, ar
			}
		}
	}
	return bestRow
}

// pivot performs a Gauss-Jordan pivot at (r, c).
func (s *simplex) pivot(r, c int) {
	pr := s.tab[r]
	pv := pr[c]
	inv := 1 / pv
	for j := range pr {
		pr[j] *= inv
	}
	pr[c] = 1 // exact
	s.b[r] *= inv
	for rr := range s.tab {
		if rr == r {
			continue
		}
		f := s.tab[rr][c]
		if f == 0 {
			continue
		}
		row := s.tab[rr]
		for j := range row {
			row[j] -= f * pr[j]
		}
		row[c] = 0 // exact
		s.b[rr] -= f * s.b[r]
		if s.b[rr] < 0 && s.b[rr] > -1e-11 {
			s.b[rr] = 0
		}
	}
	f := s.z[c]
	if f != 0 {
		for j := range s.z {
			s.z[j] -= f * pr[j]
		}
		s.z[c] = 0
	}
	s.basis[r] = c
}
