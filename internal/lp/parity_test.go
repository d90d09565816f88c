package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// TestCrossEngineParityRandom is the randomized cross-engine parity check:
// for seeded random models the sparse engine and the dense oracle must agree
// on status and objective, and every sparse optimum with its duals must pass
// Check (duals may differ between engines at degenerate optima, so
// certification is the meaningful equality).
func TestCrossEngineParityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	solved := 0
	for trial := 0; trial < 300; trial++ {
		mdl := randomModel(rng)

		ref, err := mdl.SolveDense()
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		sol, err := mdl.Solve(context.Background(), nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != ref.Status {
			t.Fatalf("trial %d: status %v, dense %v", trial, sol.Status, ref.Status)
		}
		if sol.Status != Optimal {
			continue
		}
		solved++
		tol := 1e-6 * (1 + math.Abs(ref.Objective))
		if math.Abs(sol.Objective-ref.Objective) > tol {
			t.Fatalf("trial %d: objective %.12g, dense %.12g", trial, sol.Objective, ref.Objective)
		}
		if err := mdl.Check(sol.X, mdl.RowDuals()); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if solved < 50 {
		t.Fatalf("only %d/300 random models optimal; generator broken?", solved)
	}
}
