package lp

import (
	"fmt"
	"math"
)

// checkTol is Check's tolerance, relative to the magnitude of the terms each
// condition sums: twice the engine's primal feasibility tolerance, so a
// vertex the engine accepts passes and a point 1e-6 past a bound does not.
const checkTol = 2 * spxFeasTol

// Check certifies (x, y) as an optimal primal/dual pair of the model: x one
// value per variable, y one multiplier per row in RowDuals' convention (the
// model's own sense). Everything is computed from the model's rows, bounds
// and costs — never from the engine's factors — so a solve can be checked
// without a second solver:
//
//   - every x_j lies within its bounds and every row activity within its
//     sides;
//   - every reduced cost c_j − yᵀA_j points away from the bound x_j sits at,
//     and is zero when x_j is strictly between its bounds;
//   - every row dual pushes toward the side its row is tight at, and is zero
//     on a row tight at neither (complementary slackness).
//
// Together the three make x optimal and y a dual optimum. Each condition is
// tested to checkTol relative to the terms it sums. The error names the
// first variable or row that fails and the condition.
func (m *Model) Check(x, y []float64) error {
	n, nr := len(m.obj), len(m.rows)
	if len(x) != n || len(y) != nr {
		return fmt.Errorf("lp: check: %d values for %d variables, %d duals for %d rows", len(x), n, len(y), nr)
	}
	for j, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("lp: check: x[%d] = %g is not finite", j, v)
		}
		scale := checkTol * (1 + math.Abs(v))
		if lo := m.vlo[j]; lo > -spxInf && v < lo-scale {
			return fmt.Errorf("lp: check: x[%d] = %.17g below its lower bound %g", j, v, lo)
		}
		if up := m.vup[j]; up < spxInf && v > up+scale {
			return fmt.Errorf("lp: check: x[%d] = %.17g above its upper bound %g", j, v, up)
		}
	}
	// Minimization convention: c' = ±c, y' = ±y, reduced costs d = c' − Aᵀy'.
	sgn := 1.0
	if m.sense == Maximize {
		sgn = -1
	}
	d := make([]float64, n)
	dScale := make([]float64, n) // largest term summed into d[j]
	costScale := 1.0
	for j, c := range m.obj {
		d[j] = sgn * c
		dScale[j] = max(1, math.Abs(c))
		costScale = max(costScale, math.Abs(c))
	}
	for i, r := range m.rows {
		yi := y[i]
		if math.IsNaN(yi) || math.IsInf(yi, 0) {
			return fmt.Errorf("lp: check: y[%d] = %g is not finite", i, yi)
		}
		act, actScale, aMax := 0.0, 1.0, 0.0
		for _, t := range r.terms {
			act += t.Coeff * x[t.Var]
			actScale += math.Abs(t.Coeff * x[t.Var])
			aMax = max(aMax, math.Abs(t.Coeff))
		}
		tol := checkTol * actScale
		if r.lo > -spxInf && act < r.lo-tol {
			return fmt.Errorf("lp: check: row %d activity %.17g below its lower side %g", i, act, r.lo)
		}
		if r.up < spxInf && act > r.up+tol {
			return fmt.Errorf("lp: check: row %d activity %.17g above its upper side %g", i, act, r.up)
		}
		loActive := r.lo > -spxInf && act <= r.lo+tol
		upActive := r.up < spxInf && act >= r.up-tol
		yi *= sgn
		// A dual is nonzero when its contribution to some reduced cost is
		// beyond round-off of the costs.
		if math.Abs(yi)*aMax > checkTol*costScale {
			switch {
			case yi > 0 && !loActive && upActive:
				return fmt.Errorf("lp: check: row %d dual %g has the wrong sign: the row is tight at its upper side %g", i, y[i], r.up)
			case yi < 0 && !upActive && loActive:
				return fmt.Errorf("lp: check: row %d dual %g has the wrong sign: the row is tight at its lower side %g", i, y[i], r.lo)
			case yi > 0 && !loActive, yi < 0 && !upActive:
				return fmt.Errorf("lp: check: row %d dual %g on a row tight at neither side (activity %.17g in [%g, %g])", i, y[i], act, r.lo, r.up)
			}
		}
		if yi == 0 {
			continue
		}
		for _, t := range r.terms {
			d[t.Var] -= t.Coeff * yi
			dScale[t.Var] = max(dScale[t.Var], math.Abs(t.Coeff*yi))
		}
	}
	for j, v := range x {
		tol := checkTol * dScale[j]
		bound := checkTol * (1 + math.Abs(v))
		atLo := m.vlo[j] > -spxInf && v <= m.vlo[j]+bound
		atUp := m.vup[j] < spxInf && v >= m.vup[j]-bound
		switch {
		case atLo && atUp: // fixed: any reduced cost
		case atLo && d[j] < -tol:
			return fmt.Errorf("lp: check: x[%d] at its lower bound %g with a wrong-sign reduced cost %g", j, m.vlo[j], sgn*d[j])
		case atUp && d[j] > tol:
			return fmt.Errorf("lp: check: x[%d] at its upper bound %g with a wrong-sign reduced cost %g", j, m.vup[j], sgn*d[j])
		case !atLo && !atUp && math.Abs(d[j]) > tol:
			return fmt.Errorf("lp: check: x[%d] = %.17g strictly inside its bounds with a nonzero reduced cost %g", j, v, sgn*d[j])
		}
	}
	return nil
}
