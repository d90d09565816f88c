// ROADMAP's "a regression in any counter fails CI": one cold Compute at
// explicit effort must do an exact, known amount of LP work. The counts are
// deterministic for a fixed seed and independent of the worker count, so an
// extra Model.Solve, a lost warm start or a changed pivot rule anywhere
// beneath Compute turns this red without waiting for a benchmark run.
package coyote_test

import (
	"maps"
	"runtime"
	"strings"
	"testing"

	coyote "github.com/coyote-te/coyote"
	"github.com/coyote-te/coyote/internal/obs"
)

func TestComputeWorkCounts(t *testing.T) {
	// These move only when the algorithm does; a change that means to move
	// them re-reads them from this test's failure output. (107 solves and
	// 9039 pivots until the adversary began bounding its candidates by dual
	// lengths and solving only those that can reach the top k; 33 solves,
	// 3259 pivots — 407 phase 1, 2843 dual — 73 refactorizations and 29 dual
	// hits until the simplex replaced its product-form eta file with
	// Forrest–Tomlin updates; 27 solves, 2454 pivots — 301 phase 1, 2142
	// dual — 70 refactorizations and 25 dual hits until every OPTDAG
	// normalization began from its spanning-tree crash basis. Since then no
	// solve has phase-1 or dual pivots and every solve is a warm start (the
	// crash basis); the optimal vertices reached on degenerate LPs differ,
	// and with them the dual certificates that decide which of the
	// adversary's candidates get solved. 33 solves, 766 pivots and 33
	// refactorizations while the adversary solved its candidates two at a
	// time between re-boundings rather than best-first, one at a time.)
	// Series of the coyote_lp_ family that move; every other one (phase 1,
	// stability refactorizations, numerical failures, the dual counters)
	// must stay at 0.
	want := map[string]float64{
		"coyote_lp_solves_total":           31,
		"coyote_lp_iterations_total":       734,
		"coyote_lp_refactorizations_total": 31,
		"coyote_lp_warm_attempts_total":    31,
		"coyote_lp_warm_hits_total":        31,
	}

	tp, err := coyote.LoadTopology("NSF")
	if err != nil {
		t.Fatal(err)
	}
	bounds := coyote.MarginBounds(coyote.GravityDemands(tp, 1), 2)
	for _, workers := range []int{1, 4} {
		before := obs.Default.Snapshot()
		_, err := coyote.New(tp, bounds, coyote.Options{
			OptimizerIters:   60,
			AdversarialIters: 3,
			Samples:          4,
			Seed:             5,
			Workers:          workers,
		}).Compute()
		if err != nil {
			t.Fatal(err)
		}
		if got := moved(before, "coyote_lp_"); !maps.Equal(got, want) {
			t.Errorf("workers=%d: LP work of one Compute\n got %v\nwant %v", workers, got, want)
		}
	}
}

// moved returns the registry series under prefix that moved since before,
// with how far they moved.
func moved(before obs.Snapshot, prefix string) map[string]float64 {
	out := map[string]float64{}
	for k, v := range obs.Default.Snapshot().Since(before) {
		if strings.HasPrefix(k, prefix) && v != 0 {
			out[k] = v
		}
	}
	return out
}

// TestComputeAllocs is the byte-side twin of TestComputeWorkCounts: the same
// NSF Compute at one worker may allocate no more than computeAllocCeiling
// bytes, so a lost workspace (an LP model rebuilt per solve, LU factors or
// their update arenas reallocated per factorization) fails here rather
// than only in the benchmark's alloc_mb_per_op.
func TestComputeAllocs(t *testing.T) {
	// 1.25× the 3.05 MB this Compute allocated once the exact path stopped
	// rebuilding its LPs (66 MB before).
	const computeAllocCeiling = 1.25 * 3.05 * (1 << 20)

	tp, err := coyote.LoadTopology("NSF")
	if err != nil {
		t.Fatal(err)
	}
	bounds := coyote.MarginBounds(coyote.GravityDemands(tp, 1), 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = coyote.New(tp, bounds, coyote.Options{
		OptimizerIters:   60,
		AdversarialIters: 3,
		Samples:          4,
		Seed:             5,
		Workers:          1,
	}).Compute()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("one NSF Compute allocated %.2f MB", got/(1<<20))
	if got > computeAllocCeiling {
		t.Errorf("one NSF Compute allocated %.2f MB, ceiling %.2f MB", got/(1<<20), computeAllocCeiling/(1<<20))
	}
}
