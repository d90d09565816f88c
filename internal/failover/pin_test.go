package failover

import (
	"math"
	"testing"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/strategy"
	"github.com/coyote-te/coyote/internal/topo"
)

// TestPrecomputeBitPins pins the normal-case configuration
// (strategy.Coyote) and the single-link failover plan
// (PrecomputeGroups over scen.SingleLinkFailures) on Abilene (gravity,
// margin 2) to the float64 bits recorded before the three per-scenario
// solves were merged into one. The failover experiment's table is pinned
// only to two decimals (exp.TestFailoverTable), so nothing else holds these
// numbers still. Six link pins moved by at most 3 ulps when PerfTop became
// bound-ordered (an equally optimal vertex reached along another pivot
// path). The pins were re-read again when the simplex replaced its
// product-form eta file with Forrest–Tomlin updates: the factors round
// differently, so OPTDAG normalizations differ in the last bits and so do
// the ratios built on them (at most 5 ulps). They were re-read once more
// when every OPTDAG normalization began from the spanning-tree crash basis
// instead of a carried one: the solves reach their optima along other
// pivot paths. Each pin that moved then is annotated with its move.
func TestPrecomputeBitPins(t *testing.T) {
	g, err := topo.Load("Abilene")
	if err != nil {
		t.Fatal(err)
	}
	box := demand.MarginBox(demand.Gravity(g, 1), 2)
	cfg := Config{OptIters: 40, AdvIters: 2, Samples: 3, Seed: 1}

	normal, err := strategy.Coyote(g, box, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := math.Float64bits(normal.Perf.Ratio), uint64(0x3fff366f35453ca4); got != want { // −3 ulps
		t.Errorf("NormalPerf bits %#x, want %#x", got, want)
	}
	links := []struct{ perf, ecmp uint64 }{
		{0x3ff93235b3a58cc6, 0x3ffedd80e865ac79}, // ECMPPerf −2 ulps
		{0x3fff2fb88a56fb32, 0x3fff94bd619fa225}, // Perf +1 ulp, ECMPPerf −1 ulp
		{0x3ffba1007f7c5c4a, 0x4000000000000001}, // Perf +6 ulps, ECMPPerf +1 ulp
		{0x3ffb12c932ec48e8, 0x3ffe75bb8d015e7a}, // ECMPPerf +4 ulps
		{0x3ff9dfd3afb71f57, 0x400028282828282a}, // Perf +1 ulp, ECMPPerf +3 ulps
		{0x400019b5055b0bc8, 0x400019b5055b0bc8}, // Perf −1 ulp, ECMPPerf −1 ulp
		{0x3ffcdccb599ca775, 0x3ffefe63d2eb11b5}, // ECMPPerf +1 ulp
		{0x3ff21527d7b7f993, 0x3ff5e50d79435e52}, // Perf +2 ulps
		{0x3ff5cfb5d52755ba, 0x3ffe955555555556}, // Perf +1 ulp
		{0x3ff6d78208feb3ba, 0x400037f4cf09cad8}, // Perf −2 ulps
		{0x3ff3094f8c2bed63, 0x3ff8af8af8af8af8},
		{0x3ff901390d5ccfe3, 0x40003c69b903c69b}, // Perf +2 ulps
		{0x3ffb049a5eb2d62b, 0x3ffeaaaaaaaaaaaa}, // ECMPPerf −1 ulp
		{0x3ffdcb6804f48fcd, 0x4000147ae147ae13}, // Perf +2 ulps, ECMPPerf −1 ulp
		{0x3ff8275ba1c43078, 0x3ffe45306eb3e453}, // ECMPPerf +1 ulp
		{0x3ffe6d4d1bcf9861, 0x4000e028c1978fee}, // Perf +1 ulp, ECMPPerf +3 ulps
	}
	scenarios, err := PrecomputeGroups(g, box, scen.SingleLinkFailures(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != len(links) {
		t.Fatalf("%d link scenarios, want %d", len(scenarios), len(links))
	}
	for i, want := range links {
		sc := scenarios[i]
		if sc.Disconnected {
			t.Errorf("link %d: unexpectedly disconnected", i)
			continue
		}
		if got := math.Float64bits(sc.Solved.Perf.Ratio); got != want.perf {
			t.Errorf("link %d: Perf bits %#x, want %#x", i, got, want.perf)
		}
		if got := math.Float64bits(sc.ECMPPerf); got != want.ecmp {
			t.Errorf("link %d: ECMPPerf bits %#x, want %#x", i, got, want.ecmp)
		}
	}
}
