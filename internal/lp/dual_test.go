package lp

import (
	"math"
	"math/rand"
	"testing"
)

// dualCase is one instance of the pathological dual-simplex matrix — the
// dual counterpart of matrixCases. Each model is solved with the dual phase
// forced from a cold start and checked against the dense oracle; cases
// tagged warmEdit additionally solve once, apply the edit, and require the
// dual phase to repair the carried basis.
type dualCase struct {
	name     string
	build    func() *Model
	edit     func(*Model, *Solution) // optional bound/RHS edit after first solve
	wantDual bool                    // the edited re-solve must actually run the dual phase
}

// shrinkBasics clamps the upper bound of up to count structural variables
// that are BASIC in sol's basis to X[j]−delta. Only a basic variable's
// bound edit leaves the carried basis primal infeasible (a nonbasic one
// just slides along with its bound), so this is the canonical dual-restart
// trigger.
func shrinkBasics(m *Model, sol *Solution, count int, delta float64) {
	shrunk := 0
	for j := 0; j < m.NumVars() && shrunk < count; j++ {
		if sol.Basis.Status[j] != BasisBasic {
			continue
		}
		lo, up := m.vlo[j], m.vup[j]
		up = sol.X[j] - delta
		if lo > up {
			lo = up
		}
		m.SetVarBounds(j, lo, up)
		shrunk++
	}
}

func dualCases() []dualCase {
	inf := math.Inf(1)
	return []dualCase{
		{
			// Dual-degenerate: two disjoint components whose basic
			// variables violate by exactly the same amount, so the
			// leaving-row pricing ties everywhere.
			name: "dual-degenerate-ties",
			build: func() *Model {
				m := NewModel(Minimize)
				w := m.AddVar(0, 4, 1)
				x := m.AddVar(0, 4, 1)
				y := m.AddVar(0, 4, 1)
				z := m.AddVar(0, 4, 1)
				m.AddGE([]Term{{w, 1}, {x, 1}}, 2)
				m.AddGE([]Term{{y, 1}, {z, 1}}, 2)
				return m
			},
			edit: func(m *Model, sol *Solution) {
				shrinkBasics(m, sol, 2, 1.5)
			},
			wantDual: true,
		},
		{
			// Dual-infeasible cold start: a free variable carries nonzero
			// reduced cost at the crash basis and no bound flip can repair
			// it, so a forced dual phase must switch to primal and still win.
			name: "dual-infeasible-phase-switch",
			build: func() *Model {
				m := NewModel(Minimize)
				x := m.AddVar(-inf, inf, 1)
				y := m.AddVar(0, inf, 2)
				m.AddGE([]Term{{x, 1}, {y, 1}}, 3)
				m.AddGE([]Term{{x, -1}, {y, 1}}, -1)
				return m
			},
		},
		{
			// Beale's cycling LP under the dual after an RHS edit: the
			// anti-cycling stall counter must keep the dual phase finite.
			name: "beale-dual-restart",
			build: func() *Model {
				m := NewModel(Minimize)
				v0 := m.AddVar(0, inf, -0.75)
				v1 := m.AddVar(0, inf, 150)
				v2 := m.AddVar(0, inf, -0.02)
				v3 := m.AddVar(0, inf, 6)
				m.AddLE([]Term{{v0, 0.25}, {v1, -60}, {v2, -0.04}, {v3, 9}}, 0)
				m.AddLE([]Term{{v0, 0.5}, {v1, -90}, {v2, -0.02}, {v3, 3}}, 0)
				m.AddLE([]Term{{v2, 1}}, 1)
				return m
			},
			edit: func(m *Model, sol *Solution) {
				shrinkBasics(m, sol, 1, 0.5) // v2, basic at 1, capped to 0.5
			},
			wantDual: true,
		},
		{
			// Ranged rows: the violated basic can leave at either end of its
			// range; both sides get exercised by shrinking the range around
			// the previous activity.
			name: "ranged-rows",
			build: func() *Model {
				m := NewModel(Maximize)
				x := m.AddVar(0, 10, 3)
				y := m.AddVar(0, 10, 2)
				m.AddRow([]Term{{x, 1}, {y, 1}}, 2, 12)
				m.AddRow([]Term{{x, 1}, {y, -1}}, -4, 4)
				return m
			},
			edit: func(m *Model, sol *Solution) {
				shrinkBasics(m, sol, 1, 3) // x, basic at 8, capped to 5
			},
			wantDual: true,
		},
		{
			// Boxed variables at their upper bounds: the dual ratio test
			// must consider entering columns sitting at either bound.
			name: "boxed-at-upper",
			build: func() *Model {
				m := NewModel(Maximize)
				x := m.AddVar(-2, 2, 5)
				y := m.AddVar(-2, 2, 4)
				z := m.AddVar(-2, 2, 1)
				m.AddLE([]Term{{x, 1}, {y, 1}, {z, 1}}, 3)
				m.AddLE([]Term{{x, 1}, {y, -1}}, 3)
				return m
			},
			edit: func(m *Model, sol *Solution) {
				shrinkBasics(m, sol, 1, 0.5) // z, basic at −1, capped to −1.5
			},
			wantDual: true,
		},
		{
			// Infeasible after the edit: the dual phase prices the violation
			// but no entering column exists; the verdict must come out
			// Infeasible (re-derived by primal phase 1, not trusted from the
			// dual ratio test).
			name: "edit-to-infeasible",
			build: func() *Model {
				m := NewModel(Minimize)
				x := m.AddVar(0, 4, 1)
				y := m.AddVar(0, 4, 1)
				m.AddGE([]Term{{x, 1}, {y, 1}}, 2)
				return m
			},
			edit: func(m *Model, sol *Solution) {
				m.SetRowBounds(0, 9, Inf) // beyond the variables' reach
			},
			wantDual: true,
		},
	}
}

// TestDualMatrix runs every pathological dual instance cold through the
// engine matrix — auto-routed, forced primal, forced dual — cross-checked
// against the dense oracle. The forced-dual leaf is named after the rule
// that prices it, Devex.
func TestDualMatrix(t *testing.T) {
	methods := map[string]method{"auto": methodAuto, "primal": methodPrimal, "devex": methodDual}
	for _, tc := range dualCases() {
		for mname, meth := range methods {
			t.Run(tc.name+"/"+mname, func(t *testing.T) {
				mdl := tc.build()
				ref, err := mdl.SolveDense()
				if err != nil {
					t.Fatalf("dense: %v", err)
				}
				sol, err := mdl.solve(nil, nil, meth)
				if err != nil {
					t.Fatalf("%s: %v", mname, err)
				}
				if sol.Status != ref.Status {
					t.Fatalf("%s status %v, dense %v", mname, sol.Status, ref.Status)
				}
				if sol.Status != Optimal {
					return
				}
				tol := 1e-6 * (1 + math.Abs(ref.Objective))
				if math.Abs(sol.Objective-ref.Objective) > tol {
					t.Fatalf("%s objective %.12g, dense %.12g", mname, sol.Objective, ref.Objective)
				}
				checkFeasible(t, mdl, sol.X, 0)
			})
		}
	}
}

// TestDualMatrixWarmEdit replays each case with an edit: solve, apply the
// bound/RHS change, warm re-solve the way every caller does. The dual phase
// (Devex-priced, hence the leaf name) must engage where the case demands it,
// and the result must match a cold solve on the primal path.
func TestDualMatrixWarmEdit(t *testing.T) {
	for _, tc := range dualCases() {
		if tc.edit == nil {
			continue
		}
		t.Run(tc.name+"/devex", func(t *testing.T) {
			mdl := tc.build()
			base, err := mdl.Solve(nil)
			if err != nil {
				t.Fatalf("base: %v", err)
			}
			if base.Status != Optimal {
				t.Fatalf("base status %v", base.Status)
			}
			tc.edit(mdl, base)
			warm, err := mdl.Solve(&SolveOptions{Basis: base.Basis})
			if err != nil {
				t.Fatalf("warm: %v", err)
			}
			cold, err := tcRebuildWithEdit(tc).solve(nil, nil, methodPrimal)
			if err != nil {
				t.Fatalf("cold: %v", err)
			}
			if warm.Status != cold.Status {
				t.Fatalf("warm status %v, cold %v", warm.Status, cold.Status)
			}
			if tc.wantDual && !warm.Stats.DualUsed {
				t.Fatalf("dual phase did not run (attempted=%v, iterations=%d)",
					warm.Stats.DualAttempted, warm.Stats.Iterations)
			}
			if warm.Status != Optimal {
				return
			}
			tol := 1e-6 * (1 + math.Abs(cold.Objective))
			if math.Abs(warm.Objective-cold.Objective) > tol {
				t.Fatalf("warm objective %.12g, cold %.12g", warm.Objective, cold.Objective)
			}
		})
	}
}

// TestDualStallRouting covers the auto router's bail memory
// (Basis.DualStall): a warm basis marked stalled is never routed into
// the dual phase but still solves correctly via the primal phases, and
// a dual phase that runs to completion leaves the mark cleared on the
// returned basis.
func TestDualStallRouting(t *testing.T) {
	var tc dualCase
	for _, c := range dualCases() {
		if c.edit != nil && c.wantDual {
			tc = c
			break
		}
	}
	if tc.build == nil {
		t.Fatal("no warm-edit dual case available")
	}

	mdl := tc.build()
	base, err := mdl.Solve(nil)
	if err != nil || base.Status != Optimal {
		t.Fatalf("base: status=%v err=%v", base.Status, err)
	}
	tc.edit(mdl, base)
	cold, err := tcRebuildWithEdit(tc).solve(nil, nil, methodPrimal)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}

	// A stalled chain must skip the dual phase entirely and keep the
	// mark on the basis it hands back.
	marked := base.Basis.Clone()
	marked.DualStall = 1
	skip, err := mdl.Solve(&SolveOptions{Basis: marked})
	if err != nil {
		t.Fatalf("marked warm: %v", err)
	}
	if skip.Stats.DualAttempted {
		t.Fatal("DualStall basis was routed into the dual phase")
	}
	if skip.Status != cold.Status {
		t.Fatalf("marked warm status %v, cold %v", skip.Status, cold.Status)
	}
	if skip.Status == Optimal {
		tol := 1e-6 * (1 + math.Abs(cold.Objective))
		if math.Abs(skip.Objective-cold.Objective) > tol {
			t.Fatalf("marked warm objective %.12g, cold %.12g", skip.Objective, cold.Objective)
		}
		if skip.Basis.DualStall == 0 {
			t.Fatal("skipped solve dropped the DualStall mark")
		}
	}

	// The unmarked chain routes to dual, completes, and the returned
	// basis stays clear.
	warm, err := mdl.Solve(&SolveOptions{Basis: base.Basis})
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if !warm.Stats.DualUsed {
		t.Fatalf("dual phase did not complete (attempted=%v)", warm.Stats.DualAttempted)
	}
	if warm.Basis != nil && warm.Basis.DualStall != 0 {
		t.Fatal("completed dual phase left DualStall set")
	}
}

func tcRebuildWithEdit(tc dualCase) *Model {
	m := tc.build()
	sol, err := m.Solve(nil)
	if err != nil {
		panic(err)
	}
	tc.edit(m, sol)
	return m
}

// TestDualForcedRandom hammers the forced dual phase from cold starts on random
// models: whatever path the engine takes (dual, flip-repair, or phase
// switch), the verdict must match the dense oracle.
func TestDualForcedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dualRan := 0
	for trial := 0; trial < 250; trial++ {
		mdl := randomModel(rng)
		ref, err := mdl.SolveDense()
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		sol, err := mdl.solve(nil, nil, methodDual)
		if err != nil {
			t.Fatalf("trial %d: dual: %v", trial, err)
		}
		if sol.Stats.DualUsed {
			dualRan++
		}
		if sol.Status != ref.Status {
			t.Fatalf("trial %d: dual status %v, dense %v", trial, sol.Status, ref.Status)
		}
		if sol.Status != Optimal {
			continue
		}
		tol := 1e-6 * (1 + math.Abs(ref.Objective))
		if math.Abs(sol.Objective-ref.Objective) > tol {
			t.Fatalf("trial %d: dual objective %.12g, dense %.12g", trial, sol.Objective, ref.Objective)
		}
	}
	if dualRan == 0 {
		t.Fatal("forced dual never ran to a verdict on any random model")
	}
	t.Logf("dual phase reached a verdict on %d/250 forced cold starts", dualRan)
}
