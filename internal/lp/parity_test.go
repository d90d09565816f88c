package lp

import (
	"math"
	"math/rand"
	"testing"
)

// engineMatrix is every way into the sparse engine: the route callers get,
// and the two forced ones only this package can ask for.
var engineMatrix = []struct {
	name string
	meth method
}{
	{"auto", methodAuto},
	{"primal", methodPrimal},
	{"dual", methodDual},
}

// TestCrossEngineParityRandom is the randomized cross-engine parity matrix:
// for seeded random models the sparse engine — auto-routed, forced primal,
// forced dual — and the dense oracle must agree on status and objective,
// every optimal point must be feasible, and every engine's duals must
// satisfy the original model's KKT conditions (duals themselves may differ
// between engines at degenerate optima, so KKT membership is the meaningful
// equality).
func TestCrossEngineParityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	solved := 0
	for trial := 0; trial < 300; trial++ {
		mdl := randomModel(rng)

		ref, err := mdl.SolveDense()
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		for _, v := range engineMatrix {
			sol, err := mdl.solve(nil, nil, v.meth)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, v.name, err)
			}
			if sol.Status != ref.Status {
				t.Fatalf("trial %d: %s status %v, dense %v", trial, v.name, sol.Status, ref.Status)
			}
			if sol.Status != Optimal {
				continue
			}
			tol := 1e-6 * (1 + math.Abs(ref.Objective))
			if math.Abs(sol.Objective-ref.Objective) > tol {
				t.Fatalf("trial %d: %s objective %.12g, dense %.12g",
					trial, v.name, sol.Objective, ref.Objective)
			}
			checkFeasible(t, mdl, sol.X, trial)
			if !mdl.kktValid(sol.X, sol.Duals) {
				t.Fatalf("trial %d: %s solution fails KKT validation", trial, v.name)
			}
		}
		if ref.Status == Optimal {
			solved++
		}
	}
	if solved < 50 {
		t.Fatalf("only %d/300 random models optimal; generator broken?", solved)
	}
}

// TestDualAutoAfterBoundEdit is the dual-restart smoke test: a warm basis
// made primal infeasible by a bound edit must be repaired by the dual
// simplex on the auto route, matching the cold optimum.
func TestDualAutoAfterBoundEdit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	activations := 0
	for trial := 0; trial < 200; trial++ {
		mdl := randomModel(rng)
		base, err := mdl.Solve(nil)
		if err != nil || base.Status != Optimal {
			continue
		}
		// Shrink a row range or variable bound near the optimum to knock the
		// carried basis primal infeasible.
		if len(mdl.rows) > 0 && rng.Intn(2) == 0 {
			r := rng.Intn(len(mdl.rows))
			lo, up := mdl.rows[r].lo, mdl.rows[r].up
			act := 0.0
			for _, tm := range mdl.rows[r].terms {
				act += tm.Coeff * base.X[tm.Var]
			}
			shift := 0.5 + rng.Float64()
			if up < spxInf {
				up = act - shift // force the activity down
			}
			if lo > -spxInf && lo > up {
				lo = up - 1
			}
			mdl.SetRowBounds(r, lo, up)
		} else {
			j := rng.Intn(mdl.NumVars())
			lo, up := mdl.vlo[j], mdl.vup[j]
			if lo == up {
				continue
			}
			up = base.X[j] - (0.25 + rng.Float64())
			if lo > up {
				lo = up
			}
			mdl.SetVarBounds(j, lo, up)
		}

		warm, err := mdl.Solve(&SolveOptions{Basis: base.Basis})
		if err != nil {
			t.Fatalf("trial %d: warm: %v", trial, err)
		}
		cold, err := mdl.solve(nil, nil, methodPrimal)
		if err != nil {
			t.Fatalf("trial %d: cold: %v", trial, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm status %v, cold %v", trial, warm.Status, cold.Status)
		}
		if warm.Stats.DualUsed {
			activations++
		}
		if warm.Status != Optimal {
			continue
		}
		tol := 1e-6 * (1 + math.Abs(cold.Objective))
		if math.Abs(warm.Objective-cold.Objective) > tol {
			t.Fatalf("trial %d: warm objective %.12g, cold %.12g (dual used: %v)",
				trial, warm.Objective, cold.Objective, warm.Stats.DualUsed)
		}
	}
	if activations == 0 {
		t.Fatalf("dual simplex never activated across 200 bound-edit trials")
	}
	t.Logf("dual simplex repaired %d/200 bound-edited warm starts", activations)
}

// kktTol is the KKT validation tolerance (scaled by the data).
const kktTol = 1e-6

// kktValid checks a primal/dual pair (x, y) against the model's
// optimality conditions: primal feasibility, stationarity with
// bound-respecting reduced-cost signs, and complementary slackness on
// inactive rows. Tolerances scale with the data so large-coefficient models
// are not spuriously rejected.
func (m *Model) kktValid(x, duals []float64) bool {
	n := len(m.obj)
	// Primal: variable bounds.
	for j := 0; j < n; j++ {
		scale := 1 + math.Abs(x[j])
		if m.vlo[j] > -spxInf && x[j] < m.vlo[j]-kktTol*scale {
			return false
		}
		if m.vup[j] < spxInf && x[j] > m.vup[j]+kktTol*scale {
			return false
		}
	}
	// Primal: row activities; dual sign + slackness per row.
	sgn := 1.0
	if m.sense == Maximize {
		sgn = -1
	}
	for i, r := range m.rows {
		act := 0.0
		maxTerm := 0.0
		for _, t := range r.terms {
			act += t.Coeff * x[t.Var]
			if a := math.Abs(t.Coeff * x[t.Var]); a > maxTerm {
				maxTerm = a
			}
		}
		scale := 1 + maxTerm
		if r.lo > -spxInf && act < r.lo-kktTol*scale {
			return false
		}
		if r.up < spxInf && act > r.up+kktTol*scale {
			return false
		}
		loActive := r.lo > -spxInf && act <= r.lo+kktTol*scale
		upActive := r.up < spxInf && act >= r.up-kktTol*scale
		y := sgn * duals[i] // internal minimization convention
		switch {
		case !loActive && !upActive:
			if math.Abs(y) > kktTol*scale {
				return false
			}
		case loActive && !upActive:
			if y < -kktTol*scale {
				return false
			}
		case upActive && !loActive:
			if y > kktTol*scale {
				return false
			}
		}
	}
	// Stationarity: reduced costs respect the active bounds.
	d := make([]float64, n)
	maxC := 1.0
	for j := 0; j < n; j++ {
		c := m.obj[j]
		if m.sense == Maximize {
			c = -c
		}
		d[j] = c
		if a := math.Abs(c); a > maxC {
			maxC = a
		}
	}
	for i, r := range m.rows {
		y := sgn * duals[i]
		if y == 0 {
			continue
		}
		for _, t := range r.terms {
			d[t.Var] -= t.Coeff * y
			if a := math.Abs(t.Coeff * y); a > maxC {
				maxC = a
			}
		}
	}
	tol := kktTol * maxC
	for j := 0; j < n; j++ {
		atLo := m.vlo[j] > -spxInf && x[j] <= m.vlo[j]+kktTol*(1+math.Abs(x[j]))
		atUp := m.vup[j] < spxInf && x[j] >= m.vup[j]-kktTol*(1+math.Abs(x[j]))
		switch {
		case atLo && atUp: // fixed: unconstrained
		case atLo:
			if d[j] < -tol {
				return false
			}
		case atUp:
			if d[j] > tol {
				return false
			}
		default:
			if math.Abs(d[j]) > tol {
				return false
			}
		}
	}
	return true
}
