package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/coyote-te/coyote/internal/obs"
)

// randomModel generates a random bounded LP exercising every feature the
// sparse engine adds over the dense tableau: finite/infinite bounds on
// either side, negative lower bounds, free variables, fixed variables,
// ranged and equality rows, and duplicate terms.
func randomModel(rng *rand.Rand) *Model {
	sense := Minimize
	if rng.Intn(2) == 0 {
		sense = Maximize
	}
	m := NewModel(sense)
	n := 2 + rng.Intn(8)
	for j := 0; j < n; j++ {
		var lo, up float64
		switch rng.Intn(6) {
		case 0:
			lo, up = 0, Inf
		case 1:
			lo, up = -2-rng.Float64()*3, 2+rng.Float64()*3
		case 2:
			lo, up = math.Inf(-1), rng.Float64()*4
		case 3:
			lo, up = -rng.Float64()*2, Inf
		case 4:
			v := rng.Float64()*4 - 2
			lo, up = v, v // fixed
		default:
			lo, up = 0, 1+rng.Float64()*5
		}
		m.AddVar(lo, up, rng.Float64()*6-3)
	}
	nrows := 1 + rng.Intn(8)
	for i := 0; i < nrows; i++ {
		nt := 1 + rng.Intn(n)
		terms := make([]Term, 0, nt+1)
		for k := 0; k < nt; k++ {
			terms = append(terms, Term{rng.Intn(n), rng.Float64()*4 - 2})
		}
		if rng.Intn(4) == 0 {
			terms = append(terms, terms[0]) // duplicate term: must accumulate
		}
		b := rng.Float64()*8 - 2
		switch rng.Intn(4) {
		case 0:
			m.AddLE(terms, b)
		case 1:
			m.AddGE(terms, b-4)
		case 2:
			m.AddEQ(terms, b/2)
		default:
			m.AddRow(terms, b-3-rng.Float64()*2, b)
		}
	}
	return m
}

// TestSparseDenseParityRandom cross-validates the sparse revised simplex
// against the dense full-tableau oracle on randomized LPs: statuses must
// agree, and optima must match to tight tolerance. Unbounded models where
// the two engines agree are accepted as-is; mixed verdicts fail.
func TestSparseDenseParityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	solved := 0
	for trial := 0; trial < 400; trial++ {
		mdl := randomModel(rng)
		ssol, err := mdl.Solve(context.Background(), nil)
		if err != nil {
			t.Fatalf("trial %d: sparse: %v", trial, err)
		}
		dsol, err := mdl.SolveDense()
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		if ssol.Status != dsol.Status {
			t.Fatalf("trial %d: sparse status %v, dense %v", trial, ssol.Status, dsol.Status)
		}
		if ssol.Status != Optimal {
			continue
		}
		solved++
		tol := 1e-6 * (1 + math.Abs(dsol.Objective))
		if math.Abs(ssol.Objective-dsol.Objective) > tol {
			t.Fatalf("trial %d: sparse objective %.12g, dense %.12g", trial, ssol.Objective, dsol.Objective)
		}
		if err := mdl.Check(ssol.X, mdl.RowDuals()); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if solved < 50 {
		t.Fatalf("only %d/400 random models optimal; generator broken?", solved)
	}
}

// TestDualsKKT checks the sign convention of the reported duals on random
// optimal models of both senses: every optimum with its RowDuals must pass
// Check (reduced costs vanish for in-between variables and point the right
// way at active bounds, row duals respect the side they are pinned to).
func TestDualsKKT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for trial := 0; trial < 200 && checked < 60; trial++ {
		mdl := randomModel(rng)
		sol, err := mdl.Solve(context.Background(), nil)
		if err != nil || sol.Status != Optimal {
			continue
		}
		checked++
		if err := mdl.Check(sol.X, mdl.RowDuals()); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if checked < 30 {
		t.Fatalf("only %d optimal models checked", checked)
	}
}

// TestWarmStartSkipsPhase1 re-solves a feasible model with a changed
// objective from its previous optimal basis: the warm solve must accept
// the basis and spend zero iterations in phase 1.
func TestWarmStartSkipsPhase1(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tried := 0
	for trial := 0; trial < 100 && tried < 25; trial++ {
		mdl := randomModel(rng)
		sol, err := mdl.Solve(context.Background(), nil)
		if err != nil || sol.Status != Optimal {
			continue
		}
		tried++
		for j := 0; j < len(mdl.obj); j++ {
			mdl.SetObjective(j, mdl.obj[j]+rng.Float64()-0.5)
		}
		warm, err := mdl.Solve(context.Background(), &SolveOptions{Basis: sol.Basis})
		if err != nil {
			t.Fatalf("trial %d: warm solve: %v", trial, err)
		}
		if !warm.Stats.WarmUsed {
			t.Fatalf("trial %d: warm basis rejected", trial)
		}
		if warm.Stats.Phase1Iterations != 0 {
			t.Fatalf("trial %d: warm solve spent %d phase-1 iterations after an objective-only change",
				trial, warm.Stats.Phase1Iterations)
		}
		if warm.Status == Optimal {
			cold, err := mdl.Solve(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Status != Optimal {
				t.Fatalf("trial %d: warm optimal but cold %v", trial, cold.Status)
			}
			tol := 1e-6 * (1 + math.Abs(cold.Objective))
			if math.Abs(warm.Objective-cold.Objective) > tol {
				t.Fatalf("trial %d: warm objective %.12g, cold %.12g", trial, warm.Objective, cold.Objective)
			}
		}
	}
	if tried < 10 {
		t.Fatalf("only %d warm starts exercised", tried)
	}
}

// TestWarmStartRHSChange moves row bounds between warm-started solves (the
// session/UpdateBounds pattern): the warm basis must be accepted and reach
// the same optimum as a cold solve.
func TestWarmStartRHSChange(t *testing.T) {
	m := NewModel(Minimize)
	x := m.AddVar(0, Inf, 1)
	y := m.AddVar(0, Inf, 2)
	r1 := m.AddGE([]Term{{x, 1}, {y, 1}}, 10)
	m.AddEQ([]Term{{x, 1}, {y, -1}}, 2)
	sol, err := m.Solve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-14) > 1e-6 {
		t.Fatalf("cold: %v obj=%g, want optimal 14", sol.Status, sol.Objective)
	}
	m.SetRowBounds(r1, 20, Inf)
	warm, err := m.Solve(context.Background(), &SolveOptions{Basis: sol.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.WarmUsed {
		t.Fatal("warm basis rejected after RHS change")
	}
	if warm.Status != Optimal || math.Abs(warm.Objective-29) > 1e-6 {
		t.Fatalf("warm: %v obj=%g, want optimal 29 (x=11, y=9)", warm.Status, warm.Objective)
	}
}

// TestWarmStartShapeMismatch verifies that a basis from a different model
// shape is rejected gracefully (cold start, not an error).
func TestWarmStartShapeMismatch(t *testing.T) {
	small := NewModel(Minimize)
	a := small.AddVar(0, Inf, 1)
	small.AddGE([]Term{{a, 1}}, 1)
	ssol, err := small.Solve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	big := NewModel(Minimize)
	x := big.AddVar(0, Inf, 1)
	y := big.AddVar(0, Inf, 1)
	big.AddGE([]Term{{x, 1}, {y, 1}}, 4)
	bsol, err := big.Solve(context.Background(), &SolveOptions{Basis: ssol.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if bsol.Stats.WarmUsed {
		t.Fatal("mismatched basis must not be used")
	}
	if !bsol.Stats.WarmAttempted {
		t.Fatal("warm attempt should be recorded")
	}
	if bsol.Status != Optimal || math.Abs(bsol.Objective-4) > 1e-6 {
		t.Fatalf("got %v obj=%g, want optimal 4", bsol.Status, bsol.Objective)
	}
}

// TestGlobalStatsAccumulate sanity-checks the coyote_lp_* counters -lp-stats
// reports: a cold solve and an accepted warm re-solve move them by exactly
// that much, and GlobalStats reads the same registry.
func TestGlobalStatsAccumulate(t *testing.T) {
	before, global := obs.Default.Snapshot(), GlobalStats()
	m := NewModel(Maximize)
	x := m.AddVar(0, 4, 3)
	y := m.AddVar(0, 6, 5)
	m.AddLE([]Term{{x, 3}, {y, 2}}, 18)
	sol, err := m.Solve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Solve(context.Background(), &SolveOptions{Basis: sol.Basis}); err != nil {
		t.Fatal(err)
	}
	d := obs.Default.Snapshot().Since(before)
	if movedBy(t, d, "coyote_lp_solves_total") != 2 || movedBy(t, d, "coyote_lp_warm_attempts_total") != 1 || movedBy(t, d, "coyote_lp_warm_hits_total") != 1 {
		t.Fatalf("counters moved by %v, want 2 solves, 1 warm attempt, 1 hit", d)
	}
	st := GlobalStats()
	if st.Solves-global.Solves != 2 || st.WarmHits-global.WarmHits != 1 {
		t.Fatalf("GlobalStats %+v after %+v, want 2 more solves and 1 more warm hit", st, global)
	}
}

// BenchmarkSparseMedium mirrors BenchmarkSimplexMedium on the sparse
// engine (same random instance family, built through the Model API).
func BenchmarkSparseMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	p, _, _, _ := randomLP(rng, 60, 80)
	m := NewModel(Maximize)
	for j := 0; j < p.nvars; j++ {
		m.AddVar(0, Inf, p.obj[j])
	}
	for _, r := range p.rows {
		m.AddLE(r.terms, r.rhs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(context.Background(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWarmStartFreeVarGainsBounds mutates a free variable's bounds between
// warm-started solves: the import must pin the formerly-free nonbasic
// variable to a bound instead of holding it at 0 outside [lo, up].
func TestWarmStartFreeVarGainsBounds(t *testing.T) {
	m := NewModel(Minimize)
	x := m.AddVar(math.Inf(-1), Inf, 0) // free, zero cost: stays nonbasic at 0
	y := m.AddVar(0, Inf, 1)
	m.AddGE([]Term{{y, 1}}, 2)
	m.AddLE([]Term{{x, 1}, {y, 1}}, 100)
	sol, err := m.Solve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("cold status %v", sol.Status)
	}
	if sol.Basis.Status[x] != BasisFree {
		t.Skipf("x not free-nonbasic in this basis (status %d); scenario needs it", sol.Basis.Status[x])
	}
	m.SetVarBounds(x, 1, 5)
	warm, err := m.Solve(context.Background(), &SolveOptions{Basis: sol.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal {
		t.Fatalf("warm status %v", warm.Status)
	}
	if warm.X[x] < 1-1e-9 || warm.X[x] > 5+1e-9 {
		t.Fatalf("warm solution violates new bounds: x = %g ∉ [1, 5]", warm.X[x])
	}
	if err := m.Check(warm.X, m.RowDuals()); err != nil {
		t.Fatal(err)
	}
}
