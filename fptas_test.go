// Past oblivious.DefaultExactNodeLimit nodes every PERF number is
// normalized by the FPTAS (internal/mcf's Garg–Könemann kernel). These tests
// pin the public pipeline's behaviour there: Options.Eps is validated where
// it enters, and the kernel's work counters are deterministic and pinned.
package coyote_test

import (
	"errors"
	"maps"
	"math"
	"testing"

	coyote "github.com/coyote-te/coyote"
	"github.com/coyote-te/coyote/internal/obs"
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

// computeBA42 runs one 42-node Compute and returns it with the
// coyote_mcf_fptas_* and coyote_oblivious_candidates_* series it moved.
func computeBA42(t *testing.T, workers int) (*coyote.Config, map[string]float64) {
	t.Helper()
	topo, bounds := ba42(t)
	before := obs.Default.Snapshot()
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
	// Every pair of the box's corners is routed: none scales under the
	// FPTAS routing floor.
	if v, ok := obs.Default.Snapshot().Since(before)["coyote_mcf_fptas_floored_pairs_total"]; !ok || v != 0 {
		t.Fatalf("coyote_mcf_fptas_floored_pairs_total moved by %v (registered: %v), want 0", v, ok)
	}
	work := moved(before, "coyote_mcf_fptas_")
	maps.Copy(work, moved(before, "coyote_oblivious_candidates_"))
	return cfg, work
}

// TestFPTASWorkCountsDeterministic: the coyote_mcf_fptas_* counters and the
// adversary's candidate outcomes move by the same amounts for two same-seed
// Compute calls and for Workers 1 vs 4, and the configuration past the
// crossover is finite and worker-independent. The amounts are pinned, the
// FPTAS side of what TestComputeWorkCounts pins for the LP: they move only
// when the adversary's choice of candidates or the kernel does, and a change
// that means to move them re-reads them from this test's failure output.
// (42 solves, 2 916 phases and 124 236 SP trees while the adversary solved
// its candidates two at a time between re-boundings rather than
// best-first.) Retries must stay at 0.
func TestFPTASWorkCountsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("three 42-node computations in -short mode")
	}
	want := map[string]float64{
		"coyote_mcf_fptas_solves_total":  39,
		"coyote_mcf_fptas_phases_total":  2712,
		"coyote_mcf_fptas_sptrees_total": 115542,

		"coyote_oblivious_candidates_total{cached}": 23,
		"coyote_oblivious_candidates_total{solved}": 37,
		"coyote_oblivious_candidates_total{pruned}": 391,
	}
	cfg, first := computeBA42(t, 1)
	if !maps.Equal(first, want) {
		t.Fatalf("FPTAS work of one 42-node Compute\n got %v\nwant %v", first, want)
	}
	if math.IsInf(cfg.Perf, 0) || math.IsNaN(cfg.Perf) || cfg.Perf > cfg.ECMPPerf {
		t.Fatalf("Perf %v, ECMPPerf %v: want finite and Perf ≤ ECMPPerf", cfg.Perf, cfg.ECMPPerf)
	}
	for _, workers := range []int{1, 4} {
		again, stats := computeBA42(t, workers)
		if !maps.Equal(stats, first) {
			t.Errorf("workers=%d: FPTAS work %v, first run %v", workers, stats, first)
		}
		if math.Float64bits(again.Perf) != math.Float64bits(cfg.Perf) ||
			math.Float64bits(again.ECMPPerf) != math.Float64bits(cfg.ECMPPerf) {
			t.Errorf("workers=%d: Perf %v ECMPPerf %v, first run %v %v",
				workers, again.Perf, again.ECMPPerf, cfg.Perf, cfg.ECMPPerf)
		}
	}
}
