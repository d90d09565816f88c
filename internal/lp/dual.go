// Dual simplex phase of the sparse revised-simplex engine.
//
// The primal simplex walks primal-feasible vertices toward dual
// feasibility; the dual simplex walks dual-feasible bases toward primal
// feasibility. That orientation is exactly right for the online
// controller's workload (DESIGN.md §9): after a SetVarBounds/SetRowBounds
// edit — a demand drift moving conservation-row RHS values, a capacity
// bound moving a logical's range — the carried optimal basis keeps its
// reduced-cost signs (dual feasibility depends only on costs and the basis,
// not on bounds) while the basic values may now violate the edited bounds.
// A primal warm restart must re-run phase 1 to repair them; the dual
// simplex instead pivots the violated basics out directly, each iteration
// strictly reducing primal infeasibility, and typically needs a handful of
// pivots where primal phase 1 needs a fresh pass over the whole basis.
//
// The leaving row is priced by dual Devex (reference-weight steepest-edge
// approximation), falling back to Bland's rule — lowest basic variable index
// among the violated, lowest entering index among ratio ties — after a
// stall, which guarantees termination on dual-degenerate instances. A
// basis that is not dual feasible (more precisely: cannot be made dual
// feasible by flipping nonbasic bounded variables onto their sign-correct
// bounds) causes a phase switch: the engine falls back to the primal
// two-phase path, so forcing the dual phase is always safe.
package lp

import "math"

// method selects the simplex algorithm for one engine run. Callers of
// Model.Solve always get methodAuto; the other two exist for the in-package
// tests, which force the dual phase from cold starts and solve the same
// model on the primal path as its reference.
type method int8

const (
	// methodAuto picks the algorithm from the warm-start state: an accepted
	// warm basis that is primal infeasible but dual feasible (the
	// bound/RHS-edit signature) is repaired by the dual simplex; everything
	// else runs the primal two-phase path.
	methodAuto method = iota
	// methodPrimal forces the primal two-phase simplex.
	methodPrimal
	// methodDual requests the dual simplex. If the starting basis cannot be
	// made dual feasible the engine switches to the primal phases (the
	// solve never fails on account of the method choice).
	methodDual
)

const (
	devexReset = 1e12 // reset reference weights when any grows past this
	dualPivTol = spxPivTol
)

// dualFeasible reports whether the current basis is dual feasible within
// tolerance: reduced costs d_j = c_j − yᵀA_j must be ≥ −tol for nonbasic
// columns at lower bound, ≤ tol at upper bound, and ≈ 0 for free nonbasic
// columns. Fixed columns are unconstrained. The duals y are recomputed
// from the real costs of the current basis.
func (s *spx) dualFeasible() bool {
	for k, j := range s.basic {
		s.cB[k] = s.costOf(j)
	}
	s.btran(s.cB, s.y)
	for j := int32(0); int(j) < s.ncol; j++ {
		st := s.status[j]
		if st == BasisBasic || s.p.lo[j] == s.p.up[j] {
			continue
		}
		d := s.costOf(j) - s.dotColumn(j, s.y)
		switch st {
		case BasisLower:
			if d < -spxDualTol {
				return false
			}
		case BasisUpper:
			if d > spxDualTol {
				return false
			}
		case BasisFree:
			if d < -spxDualTol || d > spxDualTol {
				return false
			}
		}
	}
	return true
}

// flipToDualFeasible flips nonbasic bounded columns whose reduced-cost sign
// is wrong for their current bound onto the opposite bound, which makes any
// basis of a box-bounded problem dual feasible without changing it. It
// reports whether full dual feasibility was reached (columns with only one
// finite bound, or free, cannot be repaired this way). Basic values are
// recomputed when any column moved.
func (s *spx) flipToDualFeasible() bool {
	for k, j := range s.basic {
		s.cB[k] = s.costOf(j)
	}
	s.btran(s.cB, s.y)
	flipped := false
	ok := true
	for j := int32(0); int(j) < s.ncol; j++ {
		st := s.status[j]
		if st == BasisBasic || s.p.lo[j] == s.p.up[j] {
			continue
		}
		d := s.costOf(j) - s.dotColumn(j, s.y)
		switch st {
		case BasisLower:
			if d < -spxDualTol {
				if s.p.up[j] < spxInf {
					s.status[j] = BasisUpper
					flipped = true
				} else {
					ok = false
				}
			}
		case BasisUpper:
			if d > spxDualTol {
				if s.p.lo[j] > -spxInf {
					s.status[j] = BasisLower
					flipped = true
				} else {
					ok = false
				}
			}
		case BasisFree:
			if d < -spxDualTol || d > spxDualTol {
				ok = false
			}
		}
	}
	if flipped {
		s.computeXB()
	}
	return ok
}

// dualCand is one entering candidate of the dual ratio test: a nonbasic
// column with the right reduced-cost/pivot-sign combination, its dual
// ratio, and its sgn-normalized pivot-row coefficient.
type dualCand struct {
	j     int32
	ratio float64
	aj    float64
}

// dualCandLess is the dual ratio-test order: ascending ratio, ties broken
// by larger |ᾱ| (pivot stability) then lower column index (determinism).
// It is a strict total order, so popping a min-heap built on it yields
// candidates in exactly sorted order.
func dualCandLess(a, b dualCand) bool {
	if a.ratio != b.ratio {
		return a.ratio < b.ratio
	}
	aa, ab := math.Abs(a.aj), math.Abs(b.aj)
	if aa != ab {
		return aa > ab
	}
	return a.j < b.j
}

// dualCandSift restores the min-heap property below position i.
func dualCandSift(h []dualCand, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && dualCandLess(h[r], h[l]) {
			m = r
		}
		if !dualCandLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// dualIterate runs dual simplex pivots until primal feasibility (optimal),
// primal infeasibility (dual unbounded), or the iteration budget. It
// assumes the starting basis is dual feasible. It reports done when it
// reached either verdict; on budget exhaustion it returns done=false and the
// caller falls through to the primal phases from the current (still valid,
// still dual-feasible-ish) basis — the dual phase is an accelerator, never a
// correctness gate. An error means a pivot left a basis the factors cannot
// represent.
//
// The ratio test is the bound-flipping ("long step") variant: walking the
// candidates in ascending dual-ratio order, every boxed column whose full
// lower↔upper flip the leaving row's violation can absorb is flipped in
// place — no pivot, no basis change, dual feasibility preserved because
// the dual step passes its ratio anyway — and only the candidate that
// would overshoot enters the basis. On box-heavy TE models (every flow
// variable and capacity logical is bounded) the short-step test instead
// pushed each entering variable past its own opposite bound, manufacturing
// a fresh violation per pivot and cascading ~50 pivots per repaired basic;
// bound flipping retires whole groups of box constraints per iteration.
func (s *spx) dualIterate() (done bool, err error) {
	maxIter := iterMul * (s.m + s.ncol)
	if maxIter < minIter {
		maxIter = minIter
	}
	// Devex reference weights, one per basis position.
	w := s.devex
	for i := range w {
		w[i] = 1
	}
	rho, unit, flipDelta := s.rho, s.unit, s.flipDelta
	stall := 0 // consecutive objective-flat iterations
	flat := 0  // cumulative objective-flat iterations, never reset
	rises := 0 // objective improvements seen (excluding the baseline)
	lastObj := s.objective()

	for iter := 0; iter < maxIter; iter++ {
		bland := stall > spxBlandAt

		// Leaving row: the violated basic with the best pricing score.
		r := int32(-1)
		above := false // violation side of the chosen row
		best := 0.0
		for k, j := range s.basic {
			v := s.xB[k]
			var viol float64
			var up bool
			if lo := s.p.lo[j]; v < lo-spxFeasTol {
				viol, up = lo-v, false
			} else if hi := s.p.up[j]; v > hi+spxFeasTol {
				viol, up = v-hi, true
			} else {
				continue
			}
			if bland {
				if r < 0 || j < s.basic[r] {
					r, above = int32(k), up
				}
				continue
			}
			if score := viol * viol / w[k]; score > best {
				best, r, above = score, int32(k), up
			}
		}
		if r < 0 {
			return true, nil // primal feasible: optimal
		}
		// Stall detection must watch the DUAL objective — the quantity the
		// dual simplex increases monotonically (each pivot adds
		// ratio·violation ≥ 0). The primal infeasibility sum is NOT
		// monotone here: a pivot snaps one basic onto its bound while
		// legally pushing others out, so gating Bland's rule on it locks
		// the solve into the slow rule for the rest of the run.
		if obj := s.objective(); obj > lastObj+1e-12 {
			stall = 0
			rises++
			lastObj = obj
		} else {
			stall++
			flat++
		}
		// Warm restarts from a previous optimum carry many zero-reduced-
		// cost nonbasics, so every dual ratio can be zero and the objective
		// sits on a degenerate plateau for thousands of pivots. A phase
		// whose objective has never moved off its starting value is
		// cut quickly; one that stops moving gets a bounded Bland window
		// to break the tie cycle, then — or past a cumulative flat budget
		// scaled to the basis size — the phase is not converging and the
		// primal phases finish cheaper from the current (still valid)
		// basis.
		if rises == 0 && iter >= 48+s.m/8 {
			return false, nil
		}
		if stall > spxBlandAt+spxBlandAt/2 || flat > s.m/2+2*spxBlandAt {
			return false, nil
		}

		// The duals y = B⁻ᵀc_B of the current basis (real costs) and
		// ρ = B⁻ᵀe_r, the r-th row of B⁻¹ in original-row space, in one
		// two-lane pass.
		for k, j := range s.basic {
			s.cB[k] = s.costOf(j)
		}
		unit[r] = 1
		s.btran2(s.cB, unit, s.y, rho)
		unit[r] = 0

		// Dual ratio test over the nonbasic columns. sgn normalizes the
		// leaving direction so eligibility and ratios read identically for
		// both violation sides: ᾱ_j = sgn·(ρᵀA_j).
		sgn := 1.0
		if !above {
			sgn = -1
		}
		leaveVar := s.basic[r]
		cands := s.cands[:0]
		for j := int32(0); int(j) < s.ncol; j++ {
			st := s.status[j]
			if st == BasisBasic || s.p.lo[j] == s.p.up[j] {
				continue
			}
			aj := sgn * s.dotColumn(j, rho)
			var ratio float64
			switch st {
			case BasisLower:
				if aj <= dualPivTol {
					continue
				}
				ratio = (s.costOf(j) - s.dotColumn(j, s.y)) / aj
			case BasisUpper:
				if aj >= -dualPivTol {
					continue
				}
				ratio = (s.costOf(j) - s.dotColumn(j, s.y)) / aj
			case BasisFree:
				if aj > -dualPivTol && aj < dualPivTol {
					continue
				}
				ratio = math.Abs(s.costOf(j)-s.dotColumn(j, s.y)) / math.Abs(aj)
			}
			if ratio < 0 {
				ratio = 0 // tolerance round-off: treat as degenerate
			}
			cands = append(cands, dualCand{j: j, ratio: ratio, aj: aj})
		}
		s.cands = cands // keep the grown backing array for the next iteration
		if len(cands) == 0 {
			// Dual unbounded: no entering column can absorb the violation,
			// so the primal problem is infeasible.
			return true, nil
		}

		var enter int32
		if bland {
			// Bland's rule: minimum ratio, lowest column index among ties,
			// no bound flips — the termination guarantee needs pure pivots.
			best := cands[0]
			for _, c := range cands[1:] {
				if c.ratio < best.ratio-1e-12 {
					best = c
				}
			}
			enter = best.j
		} else {
			// Bound-flipping walk in ascending ratio order (ties: larger
			// |ᾱ| first for pivot stability, then index for determinism).
			// The walk usually stops after a handful of candidates, so a
			// heap with lazy pops beats fully sorting the list; the
			// comparator is a strict total order, so the pop sequence is
			// exactly the sorted order and the flips (and their scatter
			// accumulation into s.work) happen in the same order as before.
			for i := len(cands)/2 - 1; i >= 0; i-- {
				dualCandSift(cands, i)
			}
			viol := s.xB[r] - s.p.up[leaveVar]
			if !above {
				viol = s.p.lo[leaveVar] - s.xB[r]
			}
			h := cands
			flipped := false
			for {
				c := h[0]
				rng := s.p.up[c.j] - s.p.lo[c.j]
				gain := math.Abs(c.aj) * rng
				if len(h) == 1 || rng >= spxInf || gain >= viol-1e-12 {
					enter = c.j
					break
				}
				viol -= gain
				// Flip everything cheaper than the entering ratio and fold
				// the basic-value change in with one ftran below:
				// Δx_B = −B⁻¹·Σ Δx_j·A_j.
				if !flipped {
					flipped = true
					for i := range s.work {
						s.work[i] = 0
					}
				}
				if s.status[c.j] == BasisLower {
					s.status[c.j] = BasisUpper
					s.scatterColumn(c.j, -rng, s.work)
				} else {
					s.status[c.j] = BasisLower
					s.scatterColumn(c.j, rng, s.work)
				}
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
				dualCandSift(h, 0)
			}
			if flipped {
				s.ftran(s.work, flipDelta)
				for k := range s.xB {
					s.xB[k] += flipDelta[k]
				}
			}
		}

		// Pivot column α = B⁻¹A_enter for the basis update, and the step
		// moving the leaving variable exactly onto its violated bound.
		s.ftranAlpha(enter)
		arq := s.alpha[r]
		if math.Abs(arq) < dualPivTol {
			// ρᵀA_q and (B⁻¹A_q)_r disagree: the updated factors have gone
			// stale numerically. Refactorize and retry the iteration.
			if !s.factorize() {
				return false, nil
			}
			s.computeXB()
			continue
		}
		target := s.p.up[leaveVar]
		leaveAt := BasisUpper
		if !above {
			target = s.p.lo[leaveVar]
			leaveAt = BasisLower
		}
		delta := (s.xB[r] - target) / arq
		dir := 1.0
		if delta < 0 {
			dir, delta = -1, -delta
		}

		// Devex weight update before the pivot overwrites alpha's meaning:
		// w_k ← max(w_k, (α_k/α_r)²·w_r); the entering position inherits
		// max(w_r/α_r², 1).
		wr := w[r]
		reset := false
		for k := range s.alpha {
			if int32(k) == r || s.alpha[k] == 0 {
				continue
			}
			g := s.alpha[k] / arq
			if cand := g * g * wr; cand > w[k] {
				w[k] = cand
				if cand > devexReset {
					reset = true
				}
			}
		}
		if nw := wr / (arq * arq); nw > 1 {
			w[r] = nw
		} else {
			w[r] = 1
		}
		if reset {
			for i := range w {
				w[i] = 1
			}
		}

		if !s.pivot(enter, dir, delta, r, leaveAt) {
			return false, errSingularBasis
		}
		s.stats.Iterations++
		s.stats.DualIterations++
	}
	return false, nil
}
