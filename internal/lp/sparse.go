// Sparse revised-simplex engine: CSC constraint matrix, LU basis
// factorization kept current by Forrest–Tomlin updates (refactorized when
// the update count, the factors' growth or an update's stability test says
// so), bounded variables, Dantzig pricing with a Bland's-rule anti-cycling
// fallback, and warm starts from an exported Basis.
//
// The engine solves problems in computational standard form
//
//	min cᵀx    s.t.  A·x − s = 0,   lo ≤ (x, s) ≤ up
//
// where s are the row activities ("logical" variables, one per row, column
// −e_i). Constraint relations become logical bounds — a ≤ row is
// s ∈ (−∞, b], an equality is s ∈ [b, b] — so no slack or artificial
// columns are ever materialized: phase 1 drives bound violations of the
// basic variables to zero directly (the classic composite-objective
// phase 1), and simple variable bounds never become rows at all.
package lp

import (
	"errors"
	"math"
)

// Column statuses of a Basis. Values are stable across releases: bases may
// be persisted by callers.
const (
	BasisLower int8 = iota // nonbasic at lower bound
	BasisBasic             // basic
	BasisUpper             // nonbasic at upper bound
	BasisFree              // nonbasic free variable, held at 0
)

// Basis is a warm-start snapshot of a sparse solve: one status per column,
// structural variables first, then one logical per row. Pass it back via
// SolveOptions.Basis on a model with the same shape (same variable and row
// counts) to resume from the previous vertex; the engine validates it and
// silently falls back to a cold start if it no longer applies.
type Basis struct {
	NumVars int    // structural variables the basis was built for
	NumRows int    // rows the basis was built for
	Status  []int8 // len NumVars+NumRows
}

// csc is a compressed-sparse-column matrix.
type csc struct {
	m, n   int
	colPtr []int32
	rowIdx []int32
	val    []float64
}

// spxProb is the built form a Model hands to the engine. Costs are already
// normalized to minimization.
type spxProb struct {
	a    csc       // m×n structural columns
	lo   []float64 // len n+m: structural bounds then row (logical) bounds
	up   []float64
	cost []float64 // len n (logicals cost 0)
}

var errSingularBasis = errors.New("lp: basis matrix is numerically singular")

const (
	luPivTol   = 1e-11 // LU singularity threshold
	spxPivTol  = 1e-9  // minimum magnitude of an acceptable pivot
	spxDualTol = 1e-9  // reduced-cost optimality tolerance
	spxFeasTol = 1e-7  // primal bound-violation tolerance
	spxBlandAt = 200   // non-improving iterations before Bland's rule
	spxInf     = math.MaxFloat64 / 4
	iterMul    = 60    // iteration budget multiplier over (m + n)
	minIter    = 20000 // iteration budget floor
)

// spx is the engine state of a solve. A Model owns one and hands it to every
// solve of the same shape (m, n): run resets it instead of reallocating, so
// a warm chain allocates only what it returns. Nothing numeric survives
// from one solve to the next — statuses, positions and basic values are
// rebuilt from the warm basis or the cold start, the first successful
// factorization drops every update and row eta of the previous solve — so
// a solve is the same function of (matrix, bounds, costs, warm basis) on a fresh workspace and
// on a used one (DESIGN.md §7).
type spx struct {
	p          *spxProb
	m, n, ncol int

	status     []int8 // per column
	basic      []int32
	inBasisPos []int32   // column → basis position, or -1
	xB         []float64 // basic values by position

	lu    *luFactors // the live buffer of luSc
	luSc  *luScratch
	stats SolveStats

	// scratch
	work  []float64 // dense m
	alpha []float64 // pivot column B⁻¹A_q, by basis position
	// spike is the last ftranAlpha's column in the live factors' pivot
	// space, the column the next update puts into U; spikeFor is the
	// column it belongs to, −1 once an update or factorization used it up.
	spike    []float64
	spikeFor int32
	y        []float64 // duals, original-row space
	cB       []float64 // basic costs by position
}

// colLo/colUp and colVal read the bounds and current nonbasic value of a
// column.
func (s *spx) colVal(j int32) float64 {
	switch s.status[j] {
	case BasisLower:
		return s.p.lo[j]
	case BasisUpper:
		return s.p.up[j]
	case BasisBasic:
		return s.xB[s.inBasisPos[j]]
	}
	return 0 // free nonbasic
}

// scatterColumn adds coefficient*Aj into the dense original-row vector out.
func (s *spx) scatterColumn(j int32, coeff float64, out []float64) {
	if int(j) < s.n {
		a := &s.p.a
		for p := a.colPtr[j]; p < a.colPtr[j+1]; p++ {
			out[a.rowIdx[p]] += coeff * a.val[p]
		}
	} else {
		out[int(j)-s.n] -= coeff // logical column is −e_i
	}
}

// dotColumn returns yᵀA_j for the dense original-row vector y.
func (s *spx) dotColumn(j int32, y []float64) float64 {
	if int(j) < s.n {
		a := &s.p.a
		sum := 0.0
		for p := a.colPtr[j]; p < a.colPtr[j+1]; p++ {
			sum += y[a.rowIdx[p]] * a.val[p]
		}
		return sum
	}
	return -y[int(j)-s.n]
}

// newSpx allocates the workspace for problems with m rows and n structural
// columns.
func newSpx(m, n int) *spx {
	return &spx{
		m: m, n: n, ncol: n + m,
		status:     make([]int8, n+m),
		basic:      make([]int32, m),
		inBasisPos: make([]int32, n+m),
		xB:         make([]float64, m),
		luSc:       newLUScratch(m),
		work:       make([]float64, m),
		alpha:      make([]float64, m),
		spike:      make([]float64, m),
		spikeFor:   -1,
		y:          make([]float64, m),
		cB:         make([]float64, m),
	}
}

// run solves p with the bounded-variable revised simplex: the primal
// two-phase loop from the warm basis when it applies, else from the
// all-logical one. p must have the workspace's shape. On Optimal the final
// vertex stays in the workspace for values, duals and exportBasis to read.
func (s *spx) run(p *spxProb, warm *Basis) (Status, error) {
	s.p = p
	s.stats = SolveStats{}
	if warm != nil {
		s.stats.WarmAttempted = true
	}
	if warm != nil && s.tryWarmStart(warm) {
		s.stats.WarmUsed = true
	} else {
		s.coldStart()
	}
	s.computeXB()
	return s.iterate()
}

// values returns a fresh copy of the final value of every column, structural
// then logical.
func (s *spx) values() []float64 {
	x := make([]float64, s.ncol)
	for j := int32(0); int(j) < s.ncol; j++ {
		x[j] = s.colVal(j)
	}
	return x
}

// duals computes the simplex multipliers of the final basis under the real
// costs into the workspace's y and returns that slice, not a copy: the next
// solve overwrites it.
func (s *spx) duals() []float64 {
	for k := 0; k < s.m; k++ {
		s.cB[k] = s.costOf(s.basic[k])
	}
	s.btran(s.cB, s.y)
	return s.y
}

// exportBasis snapshots the final basis as a fresh copy.
func (s *spx) exportBasis() *Basis {
	return &Basis{NumVars: s.n, NumRows: s.m, Status: append([]int8(nil), s.status...)}
}

func (s *spx) costOf(j int32) float64 {
	if int(j) < s.n {
		return s.p.cost[j]
	}
	return 0
}

// coldStart installs the all-logical basis with structural variables at a
// finite bound (lower preferred) or free at zero.
func (s *spx) coldStart() {
	for j := 0; j < s.n; j++ {
		switch {
		case s.p.lo[j] > -spxInf:
			s.status[j] = BasisLower
		case s.p.up[j] < spxInf:
			s.status[j] = BasisUpper
		default:
			s.status[j] = BasisFree
		}
	}
	for i := 0; i < s.m; i++ {
		s.status[s.n+i] = BasisBasic
		s.basic[i] = int32(s.n + i)
	}
	s.rebuildPositions()
	s.factorize() // logical basis is −I: trivially nonsingular
}

// tryWarmStart validates and factorizes the supplied basis; it reports
// false (leaving the state untouched for coldStart) when the basis does not
// fit the problem or is singular.
func (s *spx) tryWarmStart(b *Basis) bool {
	if b == nil || b.NumVars != s.n || b.NumRows != s.m || len(b.Status) != s.ncol {
		return false
	}
	nb := 0
	for _, st := range b.Status {
		if st == BasisBasic {
			nb++
		}
	}
	if nb != s.m {
		return false
	}
	copy(s.status, b.Status)
	k := 0
	for j := int32(0); int(j) < s.ncol; j++ {
		switch s.status[j] {
		case BasisBasic:
			s.basic[k] = j
			k++
		case BasisLower:
			// Bounds may have moved since the basis was exported; repair
			// statuses that now point at an infinite bound.
			if s.p.lo[j] <= -spxInf {
				if s.p.up[j] < spxInf {
					s.status[j] = BasisUpper
				} else {
					s.status[j] = BasisFree
				}
			}
		case BasisUpper:
			if s.p.up[j] >= spxInf {
				if s.p.lo[j] > -spxInf {
					s.status[j] = BasisLower
				} else {
					s.status[j] = BasisFree
				}
			}
		case BasisFree:
			// A variable that was free when the basis was exported may have
			// gained finite bounds since (SetVarBounds between solves);
			// holding it at 0 could silently violate them, and phase 1 only
			// repairs BASIC variables. Pin it to a bound instead.
			if s.p.lo[j] > -spxInf {
				s.status[j] = BasisLower
			} else if s.p.up[j] < spxInf {
				s.status[j] = BasisUpper
			}
		}
	}
	s.rebuildPositions()
	if !s.factorize() {
		// Singular warm basis: reset statuses for coldStart.
		for j := range s.status {
			s.status[j] = 0
		}
		return false
	}
	return true
}

func (s *spx) rebuildPositions() {
	for j := range s.inBasisPos {
		s.inBasisPos[j] = -1
	}
	for k, j := range s.basic {
		s.inBasisPos[j] = int32(k)
	}
}

// factorize rebuilds the LU factors of the current basis, dropping every
// update. It reports false on a singular basis, leaving the factors as they
// were.
func (s *spx) factorize() bool {
	f, ok := luFactorize(&s.p.a, s.basic, s.luSc)
	if !ok {
		return false
	}
	s.lu = f
	s.spikeFor = -1
	s.stats.Refactorizations++
	return true
}

// computeXB recomputes the basic values from scratch: x_B = B⁻¹(−N·x_N).
func (s *spx) computeXB() {
	for i := range s.work {
		s.work[i] = 0
	}
	for j := int32(0); int(j) < s.ncol; j++ {
		if s.status[j] == BasisBasic {
			continue
		}
		v := s.colVal(j)
		if v != 0 {
			s.scatterColumn(j, -v, s.work)
		}
	}
	s.ftran(s.work, s.xB)
}

// ftran solves B·x = b. b is dense original-row space and is clobbered;
// the result lands in out indexed by basis position.
func (s *spx) ftran(b, out []float64) {
	s.lu.ftranLU(b, out, nil)
}

// ftranAlpha computes the pivot column α = B⁻¹A_enter into s.alpha and
// keeps its spike for the update that brings enter into the basis.
func (s *spx) ftranAlpha(enter int32) {
	for i := range s.work {
		s.work[i] = 0
	}
	s.scatterColumn(enter, 1, s.work)
	s.lu.ftranLU(s.work, s.alpha, s.spike)
	s.spikeFor = enter
}

// btran solves Bᵀ·y = c. c is indexed by basis position; the result lands
// in out in original-row space.
func (s *spx) btran(c, out []float64) {
	s.lu.btranLU(c, out)
}

// infeasibility returns the total bound violation of the basic variables.
func (s *spx) infeasibility() float64 {
	sum := 0.0
	for k, j := range s.basic {
		v := s.xB[k]
		if lo := s.p.lo[j]; v < lo {
			sum += lo - v
		} else if up := s.p.up[j]; v > up {
			sum += v - up
		}
	}
	return sum
}

// objective returns cᵀx for the current iterate.
func (s *spx) objective() float64 {
	v := 0.0
	for j := int32(0); int(j) < s.n; j++ {
		if c := s.p.cost[j]; c != 0 {
			v += c * s.colVal(j)
		}
	}
	return v
}

// iterate runs phase 1 (if needed) then phase 2 to completion.
func (s *spx) iterate() (Status, error) {
	maxIter := iterMul * (s.m + s.ncol)
	if maxIter < minIter {
		maxIter = minIter
	}
	phase1 := s.infeasibility() > spxFeasTol
	stall := 0
	lastMerit := math.Inf(1)
	for iter := 0; iter < maxIter; iter++ {
		if phase1 && s.infeasibility() <= spxFeasTol {
			phase1 = false
			stall = 0
			lastMerit = math.Inf(1)
		}
		// Basic cost row for the current phase.
		if phase1 {
			for k, j := range s.basic {
				v := s.xB[k]
				switch {
				case v < s.p.lo[j]-spxFeasTol:
					s.cB[k] = -1
				case v > s.p.up[j]+spxFeasTol:
					s.cB[k] = 1
				default:
					s.cB[k] = 0
				}
			}
		} else {
			for k, j := range s.basic {
				s.cB[k] = s.costOf(j)
			}
		}
		s.btran(s.cB, s.y)

		bland := stall > spxBlandAt
		enter, dir := s.price(phase1, bland)
		if enter < 0 {
			if phase1 {
				return Infeasible, nil
			}
			return Optimal, nil
		}

		// Pivot column α = B⁻¹A_enter.
		s.ftranAlpha(enter)

		leave, t, leaveAt := s.ratioTest(enter, dir, phase1, bland)
		if leave == -2 {
			if phase1 {
				// Unbounded phase-1 descent cannot happen on a well-posed
				// problem; treat as numerical failure.
				return 0, ErrIterationLimit
			}
			return Unbounded, nil
		}
		if phase1 {
			s.stats.Phase1Iterations++
		}
		s.stats.Iterations++

		merit := 0.0
		if leave == -1 {
			// Bound flip: the entering variable traverses to its opposite
			// bound; the basis is unchanged.
			for k := range s.xB {
				s.xB[k] -= dir * t * s.alpha[k]
			}
			if s.status[enter] == BasisLower {
				s.status[enter] = BasisUpper
			} else {
				s.status[enter] = BasisLower
			}
		} else if !s.pivot(enter, dir, t, leave, leaveAt) {
			return 0, errSingularBasis
		}
		if phase1 {
			merit = s.infeasibility()
		} else {
			merit = s.objective()
		}
		if merit < lastMerit-1e-12 {
			stall = 0
			lastMerit = merit
		} else {
			stall++
		}
	}
	return 0, ErrIterationLimit
}

// price chooses the entering column and its direction (+1 increasing, −1
// decreasing): Dantzig's largest reduced-cost violation, or the
// lowest-index violation under Bland's rule. Returns enter = −1 at
// optimality.
func (s *spx) price(phase1, bland bool) (int32, float64) {
	best := int32(-1)
	bestDir := 1.0
	bestVal := spxDualTol
	for j := int32(0); int(j) < s.ncol; j++ {
		st := s.status[j]
		if st == BasisBasic {
			continue
		}
		if s.p.lo[j] == s.p.up[j] {
			continue // fixed variable can never profitably enter
		}
		c := 0.0
		if !phase1 {
			c = s.costOf(j)
		}
		d := c - s.dotColumn(j, s.y)
		var score, dir float64
		switch st {
		case BasisLower:
			score, dir = -d, 1
		case BasisUpper:
			score, dir = d, -1
		case BasisFree:
			if d < 0 {
				score, dir = -d, 1
			} else {
				score, dir = d, -1
			}
		}
		if score > bestVal {
			if bland {
				return j, dir
			}
			best, bestDir, bestVal = j, dir, score
		}
	}
	return best, bestDir
}

// ratioTest finds the blocking limit of an entering step. It returns:
//
//	leave ≥ 0:  basis position that leaves, t = step, leaveAt = the bound
//	            status the leaving variable is pinned to;
//	leave = −1: bound flip of the entering variable (t = bound distance);
//	leave = −2: no finite limit (unbounded in phase 2).
//
// In phase 1, basic variables that are currently infeasible block at their
// nearest violated bound (becoming feasible there), which keeps the
// infeasibility monotonically decreasing — the short-step composite rule.
func (s *spx) ratioTest(enter int32, dir float64, phase1, bland bool) (int32, float64, int8) {
	bestT := math.Inf(1)
	leave := int32(-2)
	var leaveAt int8
	bestPiv := 0.0
	// The entering variable's own travel distance between its bounds.
	if lo, up := s.p.lo[enter], s.p.up[enter]; lo > -spxInf && up < spxInf {
		bestT = up - lo
		leave = -1
	}
	for k := range s.alpha {
		ak := s.alpha[k]
		if ak > -spxPivTol && ak < spxPivTol {
			continue
		}
		delta := -dir * ak // rate of change of xB[k] per unit entering step
		j := s.basic[k]
		v := s.xB[k]
		lo, up := s.p.lo[j], s.p.up[j]
		var t float64 = math.Inf(1)
		var at int8
		switch {
		case phase1 && v < lo-spxFeasTol:
			if delta > 0 {
				t, at = (lo-v)/delta, BasisLower
			}
		case phase1 && v > up+spxFeasTol:
			if delta < 0 {
				t, at = (v-up)/(-delta), BasisUpper
			}
		case delta > 0:
			if up < spxInf {
				t, at = (up-v)/delta, BasisUpper
			}
		case delta < 0:
			if lo > -spxInf {
				t, at = (v-lo)/(-delta), BasisLower
			}
		}
		if math.IsInf(t, 1) {
			continue
		}
		if t < 0 {
			t = 0 // numerical: already (just past) its bound
		}
		switch {
		case t < bestT-1e-12:
			leave, bestT, leaveAt, bestPiv = int32(k), t, at, math.Abs(ak)
		case t <= bestT+1e-12 && leave >= 0:
			if bland {
				if s.basic[k] < s.basic[leave] {
					leave, bestT, leaveAt, bestPiv = int32(k), t, at, math.Abs(ak)
				}
			} else if math.Abs(ak) > bestPiv {
				leave, bestT, leaveAt, bestPiv = int32(k), t, at, math.Abs(ak)
			}
		}
	}
	return leave, bestT, leaveAt
}

// pivot applies a basis change: entering column moves t along dir, basic
// position r leaves pinned at leaveAt. It must follow the ftranAlpha of
// enter, whose spike the Forrest–Tomlin update consumes. It reports false
// when the factors cannot follow: the update was refused and the new basis
// is numerically singular.
func (s *spx) pivot(enter int32, dir, t float64, r int32, leaveAt int8) bool {
	enterVal := s.colVal(enter) + dir*t
	for k := range s.xB {
		s.xB[k] -= dir * t * s.alpha[k]
	}
	old := s.basic[r]
	s.status[old] = leaveAt
	// Snap the leaving variable exactly onto its bound (it is within
	// tolerance of it by construction).
	s.inBasisPos[old] = -1
	s.status[enter] = BasisBasic
	s.basic[r] = enter
	s.inBasisPos[enter] = r
	s.xB[r] = enterVal

	// Update the factors in place when they can take another update;
	// otherwise, or when the update fails its stability test, rebuild them
	// for the new basis.
	spiked := s.spikeFor == enter
	s.spikeFor = -1
	if spiked && !s.lu.full() {
		if s.lu.update(r, s.spike, s.alpha[r]) {
			return true
		}
		s.stats.StabilityRefactorizations++
	}
	if !s.factorize() {
		return false
	}
	s.computeXB()
	return true
}
