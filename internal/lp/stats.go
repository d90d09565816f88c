package lp

import "github.com/coyote-te/coyote/internal/obs"

// StatsSnapshot aggregates solver activity across every Model.Solve in the
// process since the last ResetGlobalStats — the source for
// `coyote-eval -lp-stats`. Counters are monotone and safe to read
// concurrently; they are diagnostics only and never part of the
// determinism contract.
type StatsSnapshot struct {
	Solves           uint64 // sparse solves attempted
	Iterations       uint64 // total simplex iterations
	Phase1Iterations uint64 // iterations spent restoring feasibility
	DualIterations   uint64 // iterations spent in the dual simplex phase
	Refactorizations uint64 // LU (re)factorizations
	WarmAttempts     uint64 // solves offered a warm basis
	WarmHits         uint64 // ... that accepted it
	DualAttempts     uint64 // solves that entered the dual simplex phase
	DualHits         uint64 // ... where it ran to a verdict
	DenseFallbacks   uint64 // sparse failures answered by the dense oracle

	// StabilityRefactorizations counts the refactorizations forced by an
	// update failing its stability test.
	StabilityRefactorizations uint64
}

// WarmHitRate is WarmHits/WarmAttempts, or 0 when no warm start was tried.
func (s StatsSnapshot) WarmHitRate() float64 {
	if s.WarmAttempts == 0 {
		return 0
	}
	return float64(s.WarmHits) / float64(s.WarmAttempts)
}

// DualHitRate is DualHits/DualAttempts, or 0 when the dual phase never ran.
func (s StatsSnapshot) DualHitRate() float64 {
	if s.DualAttempts == 0 {
		return 0
	}
	return float64(s.DualHits) / float64(s.DualAttempts)
}

// The process-wide solver counters now live in the obs.Default metrics
// registry (DESIGN.md §10) and are exported on GET /metrics as the
// coyote_lp_* family; GlobalStats/ResetGlobalStats keep their historical
// semantics by delegating to them.
var (
	mSolves = obs.Default.NewCounter("coyote_lp_solves_total",
		"Sparse simplex solves attempted.")
	mIterations = obs.Default.NewCounter("coyote_lp_iterations_total",
		"Simplex iterations across all phases.")
	mPhase1 = obs.Default.NewCounter("coyote_lp_phase1_iterations_total",
		"Iterations spent restoring primal feasibility (phase 1).")
	mDualIterations = obs.Default.NewCounter("coyote_lp_dual_iterations_total",
		"Iterations spent in the dual simplex phase.")
	mRefactorizations = obs.Default.NewCounter("coyote_lp_refactorizations_total",
		"LU (re)factorizations of the basis matrix.")
	mStabilityRefactorizations = obs.Default.NewCounter("coyote_lp_stability_refactorizations_total",
		"Refactorizations forced by a Forrest–Tomlin update failing its stability test.")
	mWarmAttempts = obs.Default.NewCounter("coyote_lp_warm_attempts_total",
		"Solves offered a warm-start basis.")
	mWarmHits = obs.Default.NewCounter("coyote_lp_warm_hits_total",
		"Solves that accepted the offered warm-start basis.")
	mDualAttempts = obs.Default.NewCounter("coyote_lp_dual_attempts_total",
		"Solves that entered the dual simplex phase.")
	mDualHits = obs.Default.NewCounter("coyote_lp_dual_hits_total",
		"Dual simplex attempts that ran to a verdict.")
	mDenseFallbacks = obs.Default.NewCounter("coyote_lp_dense_fallbacks_total",
		"Sparse-engine failures answered by the dense oracle.")
)

// lpLog records the solver's exceptional paths — dense fallbacks at warn,
// dual-phase bailouts at debug. Ordinary solves stay silent; the counters
// above carry the volume.
var lpLog = obs.Scope("lp")

func recordGlobalStats(s SolveStats) {
	mSolves.Inc()
	mIterations.Add(uint64(s.Iterations))
	mPhase1.Add(uint64(s.Phase1Iterations))
	mDualIterations.Add(uint64(s.DualIterations))
	mRefactorizations.Add(uint64(s.Refactorizations))
	mStabilityRefactorizations.Add(uint64(s.StabilityRefactorizations))
	if s.WarmAttempted {
		mWarmAttempts.Inc()
	}
	if s.WarmUsed {
		mWarmHits.Inc()
	}
	if s.DualAttempted {
		mDualAttempts.Inc()
	}
	if s.DualUsed {
		mDualHits.Inc()
	}
}

// GlobalStats returns a snapshot of the process-wide solver counters.
func GlobalStats() StatsSnapshot {
	return StatsSnapshot{
		Solves:           mSolves.Value(),
		Iterations:       mIterations.Value(),
		Phase1Iterations: mPhase1.Value(),
		DualIterations:   mDualIterations.Value(),
		Refactorizations: mRefactorizations.Value(),
		WarmAttempts:     mWarmAttempts.Value(),
		WarmHits:         mWarmHits.Value(),
		DualAttempts:     mDualAttempts.Value(),
		DualHits:         mDualHits.Value(),
		DenseFallbacks:   mDenseFallbacks.Value(),

		StabilityRefactorizations: mStabilityRefactorizations.Value(),
	}
}

// ResetGlobalStats zeroes the process-wide solver counters (per-run
// accounting for -lp-stats). A Prometheus scraper sees this as a counter
// restart, which its rate functions already handle.
func ResetGlobalStats() {
	for _, c := range []*obs.Counter{
		mSolves, mIterations, mPhase1, mDualIterations, mRefactorizations, mStabilityRefactorizations,
		mWarmAttempts, mWarmHits, mDualAttempts, mDualHits, mDenseFallbacks,
	} {
		c.Reset()
	}
}
