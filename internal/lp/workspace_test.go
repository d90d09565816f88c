package lp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// cloneModel builds, through the public builder calls, a model identical to
// m as it stands now: same variables, rows, bounds and costs, no workspace.
func cloneModel(m *Model) *Model {
	c := NewModel(m.sense)
	for j := range m.obj {
		c.AddVar(m.vlo[j], m.vup[j], m.obj[j])
	}
	for _, r := range m.rows {
		c.AddRow(r.terms, r.lo, r.up)
	}
	return c
}

// boxedModel generates an LP with nv boxed variables and nr ranged rows that
// contain the point x0, so it stays feasible however the rows are re-centred
// on a moved x0 (recentre) — large enough that cold solves refactorize.
func boxedModel(rng *rand.Rand, nv, nr int) (*Model, []float64) {
	m := NewModel(Minimize)
	x0 := make([]float64, nv)
	for j := range x0 {
		x0[j] = 1 + rng.Float64()*3
		m.AddVar(0, 6, rng.Float64()*4-2)
	}
	for i := 0; i < nr; i++ {
		terms := make([]Term, 0, 6)
		for k := 0; k < 6; k++ {
			terms = append(terms, Term{rng.Intn(nv), rng.Float64()*4 - 2})
		}
		m.AddRow(terms, 0, 0)
	}
	recentre(m, x0, rng)
	return m, x0
}

// recentre moves every row's range to a random interval around its activity
// at x0. A row keeps its kind (every fourth an equality, every fourth a ≤),
// so a re-centring is a bound-only edit, the kind that can leave a carried
// basis primal infeasible.
func recentre(m *Model, x0 []float64, rng *rand.Rand) {
	for i, r := range m.rows {
		act := 0.0
		for _, t := range r.terms {
			act += t.Coeff * x0[t.Var]
		}
		switch i % 4 {
		case 0:
			m.SetRowBounds(i, act, act)
		case 1:
			m.SetRowBounds(i, math.Inf(-1), act+rng.Float64())
		default:
			m.SetRowBounds(i, act-rng.Float64(), act+rng.Float64())
		}
	}
}

func sameSolution(t *testing.T, step string, got, want *Solution) {
	t.Helper()
	if got.Status != want.Status || got.Stats != want.Stats {
		t.Fatalf("%s: status %v stats %+v, fresh model %v %+v", step, got.Status, got.Stats, want.Status, want.Stats)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("%s: objective %v, fresh model %v", step, got.Objective, want.Objective)
	}
	sameBits(t, step, "X", got.X, want.X)
	if (got.Basis == nil) != (want.Basis == nil) {
		t.Fatalf("%s: basis %v, fresh model %v", step, got.Basis, want.Basis)
	}
	if got.Basis != nil {
		if got.Basis.NumVars != want.Basis.NumVars || got.Basis.NumRows != want.Basis.NumRows ||
			!sameStatus(got.Basis.Status, want.Basis.Status) {
			t.Fatalf("%s: basis %+v, fresh model %+v", step, got.Basis, want.Basis)
		}
	}
}

func sameBits(t *testing.T, step, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %s has %d entries, fresh model %d", step, name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: %s[%d] = %v, fresh model %v", step, name, i, a[i], b[i])
		}
	}
}

func sameStatus(a, b []int8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorkspaceReuseParity: a Model that is solved, edited and re-solved a
// hundred times on its own workspace returns, every time, exactly what an
// identical freshly built model returns from the same warm basis — values,
// duals, basis and solve statistics — through bound and cost edits, cold
// restarts, a singular warm basis, and an AddRow that changes the shape.
func TestWorkspaceReuseParity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const nv, nr = 60, 40
	live, x0 := boxedModel(rng, nv, nr)
	// A variable no row mentions: basic, it makes any basis singular.
	idle := live.AddVar(0, 1, 1)

	var warm *Basis
	var refactorized, warmPhase1, shapeChanges, singular int
	for round := 0; round < 100; round++ {
		step := fmt.Sprintf("round %d", round)
		// Edit: drift the feasible point and re-centre the rows on it, move a
		// few variable bounds and — every fourth round, so the others are
		// bound-only edits that phase 1 repairs from the warm basis — a few
		// costs.
		for j := range x0 {
			x0[j] = math.Min(5, math.Max(1, x0[j]+rng.Float64()*0.6-0.3))
		}
		recentre(live, x0, rng)
		for k := 0; k < 5; k++ {
			if round%4 == 0 {
				live.SetObjective(rng.Intn(nv), rng.Float64()*4-2)
			}
			j := rng.Intn(nv)
			live.SetVarBounds(j, rng.Float64(), 5+rng.Float64()) // x0 stays within [1, 5]
		}
		use := warm
		switch {
		case round%17 == 5:
			use = nil // cold solve on a used workspace
		case round%23 == 11 && warm != nil:
			// Right count of basics, singular matrix: the idle column in,
			// some basic column out.
			use = &Basis{NumVars: warm.NumVars, NumRows: warm.NumRows, Status: append([]int8(nil), warm.Status...)}
			if use.Status[idle] != BasisBasic {
				for j, st := range use.Status {
					if st == BasisBasic {
						use.Status[j] = BasisLower
						break
					}
				}
				use.Status[idle] = BasisBasic
			}
			singular++
		case round%31 == 20:
			// Shape change: the workspace must follow (m, n).
			terms := []Term{{rng.Intn(nv), 1}, {rng.Intn(nv), -1}}
			live.AddRow(terms, -10, 10)
			shapeChanges++
		}
		fresh := cloneModel(live)
		got, err := live.Solve(context.Background(), &SolveOptions{Basis: use})
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		want, err := fresh.Solve(context.Background(), &SolveOptions{Basis: use})
		if err != nil {
			t.Fatalf("%s: fresh model: %v", step, err)
		}
		sameSolution(t, step, got, want)
		wantDuals := fresh.RowDuals()
		sameBits(t, step, "row duals", live.RowDuals(), wantDuals)
		if got.Status != Optimal {
			t.Fatalf("%s: status %v; the generator keeps the model feasible and bounded", step, got.Status)
		}
		// The value-only entry point is the same solve.
		obj, status, err := live.SolveObjective(context.Background(), &SolveOptions{Basis: use})
		if err != nil || status != Optimal || math.Float64bits(obj) != math.Float64bits(want.Objective) {
			t.Fatalf("%s: SolveObjective = %v, %v, %v; Solve on a fresh model found %v", step, obj, status, err, want.Objective)
		}
		sameBits(t, step, "SolveObjective's row duals", live.RowDuals(), wantDuals)
		if use != nil && use != warm && got.Stats.WarmUsed {
			t.Fatalf("%s: the singular basis was accepted", step)
		}
		if got.Stats.Refactorizations > 1 {
			refactorized++
		}
		if got.Stats.WarmUsed && got.Stats.Phase1Iterations > 0 {
			warmPhase1++
		}
		warm = got.Basis
	}
	if refactorized == 0 || warmPhase1 == 0 || shapeChanges == 0 || singular == 0 {
		t.Fatalf("coverage: %d solves refactorized, %d warm solves ran phase 1, %d shape changes, %d singular bases — the sequence no longer exercises the workspace",
			refactorized, warmPhase1, shapeChanges, singular)
	}
}
