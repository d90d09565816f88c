package lp

import "github.com/coyote-te/coyote/internal/obs"

// StatsSnapshot aggregates solver activity across every Model.Solve in the
// process. Counters are monotone and safe to read concurrently; they are
// diagnostics only and never part of the determinism contract. A per-run
// count is a difference of two obs.Default snapshots (obs.Snapshot.Since);
// GlobalStats stays for the benchmark's pivot counts.
type StatsSnapshot struct {
	Solves           uint64 // sparse solves attempted
	Iterations       uint64 // total simplex iterations
	Phase1Iterations uint64 // iterations spent restoring feasibility
	Refactorizations uint64 // LU (re)factorizations
	WarmAttempts     uint64 // solves offered a warm basis
	WarmHits         uint64 // ... that accepted it
	// DenseFallbacks counts solves the sparse engine failed numerically and
	// returned as an error; the name predates the removal of the dense
	// fallback and is kept because the benchmark reads it.
	DenseFallbacks uint64

	// StabilityRefactorizations counts the refactorizations forced by an
	// update failing its stability test.
	StabilityRefactorizations uint64
}

// The process-wide solver counters live in the obs.Default metrics registry
// (DESIGN.md §10) and are exported on GET /metrics as the coyote_lp_*
// family; GlobalStats reads them. The simplex has no dual phase; its three
// coyote_lp_dual_* counters stay registered and read 0 because the benchmark
// ledger reads them by name.
var (
	mSolves = obs.Default.NewCounter("coyote_lp_solves_total",
		"Sparse simplex solves attempted.")
	mIterations = obs.Default.NewCounter("coyote_lp_iterations_total",
		"Simplex iterations across all phases.")
	mPhase1 = obs.Default.NewCounter("coyote_lp_phase1_iterations_total",
		"Iterations spent restoring primal feasibility (phase 1).")
	_ = obs.Default.NewCounter("coyote_lp_dual_iterations_total",
		"Always 0: the simplex has no dual phase.")
	mRefactorizations = obs.Default.NewCounter("coyote_lp_refactorizations_total",
		"LU (re)factorizations of the basis matrix.")
	mStabilityRefactorizations = obs.Default.NewCounter("coyote_lp_stability_refactorizations_total",
		"Refactorizations forced by a Forrest–Tomlin update failing its stability test.")
	mWarmAttempts = obs.Default.NewCounter("coyote_lp_warm_attempts_total",
		"Solves offered a warm-start basis.")
	mWarmHits = obs.Default.NewCounter("coyote_lp_warm_hits_total",
		"Solves that accepted the offered warm-start basis.")
	_ = obs.Default.NewCounter("coyote_lp_dual_attempts_total",
		"Always 0: the simplex has no dual phase.")
	_ = obs.Default.NewCounter("coyote_lp_dual_hits_total",
		"Always 0: the simplex has no dual phase.")
	mDenseFallbacks = obs.Default.NewCounter("coyote_lp_dense_fallbacks_total",
		"Sparse-engine numerical failures returned as errors.")
)

func recordGlobalStats(s SolveStats) {
	mSolves.Inc()
	mIterations.Add(uint64(s.Iterations))
	mPhase1.Add(uint64(s.Phase1Iterations))
	mRefactorizations.Add(uint64(s.Refactorizations))
	mStabilityRefactorizations.Add(uint64(s.StabilityRefactorizations))
	if s.WarmAttempted {
		mWarmAttempts.Inc()
	}
	if s.WarmUsed {
		mWarmHits.Inc()
	}
}

// GlobalStats returns a snapshot of the process-wide solver counters.
func GlobalStats() StatsSnapshot {
	return StatsSnapshot{
		Solves:           mSolves.Value(),
		Iterations:       mIterations.Value(),
		Phase1Iterations: mPhase1.Value(),
		Refactorizations: mRefactorizations.Value(),
		WarmAttempts:     mWarmAttempts.Value(),
		WarmHits:         mWarmHits.Value(),
		DenseFallbacks:   mDenseFallbacks.Value(),

		StabilityRefactorizations: mStabilityRefactorizations.Value(),
	}
}
