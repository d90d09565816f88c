package coyote_test

import (
	"testing"

	"github.com/coyote-te/coyote"
)

// TestRealizeAllocs caps the allocations of one Config.Lies(3) on Geant:
// quantization, synthesis and verification run on buffers one realization
// reuses, so a map or a buffer built per router or per destination fails
// here. The ceiling is a fifth of the 5 205 allocations the benchmark's
// Geant Lies(3) made when every (router, destination) FIB was a map; this
// configuration's Lies(3) made 5 392 then and makes 150 now.
func TestRealizeAllocs(t *testing.T) {
	const ceiling = 5205 / 5

	tp, err := coyote.LoadTopology("Geant")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := coyote.New(tp, coyote.MarginBounds(coyote.GravityDemands(tp, 1), 2), coyote.Options{
		OptimizerIters:   60,
		AdversarialIters: 2,
		Samples:          2,
		Seed:             1,
		Workers:          1,
	}).Compute()
	if err != nil {
		t.Fatal(err)
	}
	var lies *coyote.LieSet
	got := testing.AllocsPerRun(5, func() {
		if lies, err = cfg.Lies(3); err != nil {
			t.Fatal(err)
		}
	})
	if lies.FakeNodes == 0 {
		t.Fatal("the Geant configuration needs no lies; nothing was measured")
	}
	t.Logf("one Geant Lies(3): %.0f allocations, %d fake nodes", got, lies.FakeNodes)
	if got > ceiling {
		t.Errorf("one Geant Lies(3) made %.0f allocations, ceiling %d", got, ceiling)
	}
}
