// Past oblivious.DefaultExactNodeLimit nodes every PERF number is
// normalized by the FPTAS (internal/mcf's Garg–Könemann kernel). These tests
// pin the public pipeline's behaviour there: Options.Eps is validated where
// it enters, and the kernel's work counters are deterministic.
package coyote_test

import (
	"errors"
	"math"
	"testing"

	coyote "github.com/coyote-te/coyote"
	"github.com/coyote-te/coyote/internal/mcf"
)

// ba42 is the first generated size past the exact/FPTAS crossover (the
// benchmark's scale-ba42 topology).
func ba42(t *testing.T) (*coyote.Topology, *coyote.Bounds) {
	t.Helper()
	topo, err := coyote.GenerateTopology("ba", coyote.GenParams{N: 42, M: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return topo, coyote.MarginBounds(coyote.GravityDemands(topo, 1), 2)
}

// TestEpsOutOfRangeIsAnError: an Eps the FPTAS rejects used to fail every
// normalization silently and come back as err == nil with Perf = -Inf.
func TestEpsOutOfRangeIsAnError(t *testing.T) {
	topo, bounds := ba42(t)
	for _, eps := range []float64{0.5, -0.1, math.NaN(), math.Inf(1)} {
		var ee *coyote.EpsError
		cfg, err := coyote.New(topo, bounds, coyote.Options{Eps: eps}).Compute()
		if !errors.As(err, &ee) {
			t.Fatalf("Compute with Eps %v: config %+v, error %v; want an *EpsError", eps, cfg, err)
		}
		if _, err := coyote.NewSession(topo, bounds, coyote.Options{Eps: eps}); !errors.As(err, &ee) {
			t.Fatalf("NewSession with Eps %v: error %v; want an *EpsError", eps, err)
		}
	}
}

func computeBA42(t *testing.T, workers int) (*coyote.Config, mcf.ApproxStats) {
	t.Helper()
	topo, bounds := ba42(t)
	before := mcf.GlobalApproxStats()
	cfg, err := coyote.New(topo, bounds, coyote.Options{
		OptimizerIters:   20,
		AdversarialIters: 1,
		Samples:          2,
		Eps:              0.4,
		Seed:             5,
		Workers:          workers,
	}).Compute()
	if err != nil {
		t.Fatal(err)
	}
	after := mcf.GlobalApproxStats()
	return cfg, mcf.ApproxStats{
		Solves:  after.Solves - before.Solves,
		Phases:  after.Phases - before.Phases,
		Trees:   after.Trees - before.Trees,
		Retries: after.Retries - before.Retries,
	}
}

// TestFPTASWorkCountsDeterministic: the coyote_mcf_fptas_* counters move by
// the same amounts for two same-seed Compute calls and for Workers 1 vs 4,
// and the configuration past the crossover is finite and worker-independent.
func TestFPTASWorkCountsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("three 42-node computations in -short mode")
	}
	cfg, first := computeBA42(t, 1)
	if first.Solves == 0 || first.Phases == 0 || first.Trees < first.Phases {
		t.Fatalf("a 42-node Compute must normalize through the FPTAS, got %+v", first)
	}
	if math.IsInf(cfg.Perf, 0) || math.IsNaN(cfg.Perf) || cfg.Perf > cfg.ECMPPerf {
		t.Fatalf("Perf %v, ECMPPerf %v: want finite and Perf ≤ ECMPPerf", cfg.Perf, cfg.ECMPPerf)
	}
	for _, workers := range []int{1, 4} {
		again, stats := computeBA42(t, workers)
		if stats != first {
			t.Errorf("workers=%d: FPTAS work %+v, first run %+v", workers, stats, first)
		}
		if math.Float64bits(again.Perf) != math.Float64bits(cfg.Perf) ||
			math.Float64bits(again.ECMPPerf) != math.Float64bits(cfg.ECMPPerf) {
			t.Errorf("workers=%d: Perf %v ECMPPerf %v, first run %v %v",
				workers, again.Perf, again.ECMPPerf, cfg.Perf, cfg.ECMPPerf)
		}
	}
}
