package scen

import (
	"math"
	"testing"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := Generate("ring", Params{N: 8, M: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func sameMatrix(a, b *demand.Matrix) bool {
	if a.N != b.N {
		return false
	}
	for i := range a.D {
		if a.D[i] != b.D[i] {
			return false
		}
	}
	return true
}

func TestBaseMatrixModels(t *testing.T) {
	g := testGraph(t)
	for _, model := range Models() {
		m, err := BaseMatrix(g, model, 1, 3)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if math.Abs(m.MaxEntry()-1) > 1e-12 {
			t.Errorf("%s: peak %g, want 1", model, m.MaxEntry())
		}
		m2, err := BaseMatrix(g, model, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMatrix(m, m2) {
			t.Errorf("%s: not deterministic in seed", model)
		}
	}
	if _, err := BaseMatrix(g, "nope", 1, 3); err == nil {
		t.Error("unknown model should fail")
	}
}

func TestHotspotBoostsDestinations(t *testing.T) {
	g := testGraph(t)
	grav := demand.Gravity(g, 1)
	hot := Hotspot(g, HotspotParams{Hotspots: 2, Boost: 8}, 1, 3)
	// Per-column hotspot/gravity ratios: normalization rescales all of
	// them uniformly, so exactly 2 destinations must sit 8× above the
	// smallest ratio.
	n := g.NumNodes()
	ratios := make([]float64, n)
	lo := math.Inf(1)
	for d := 0; d < n; d++ {
		var gsum, hsum float64
		for s := 0; s < n; s++ {
			if s == d {
				continue
			}
			gsum += grav.At(graph.NodeID(s), graph.NodeID(d))
			hsum += hot.At(graph.NodeID(s), graph.NodeID(d))
		}
		ratios[d] = hsum / gsum
		lo = math.Min(lo, ratios[d])
	}
	boosted := 0
	for _, r := range ratios {
		if r > 4*lo {
			boosted++
		}
	}
	if boosted != 2 {
		t.Errorf("%d boosted destinations, want 2", boosted)
	}
}

func TestFlashCrowdSingleDestination(t *testing.T) {
	g := testGraph(t)
	grav := demand.Gravity(g, 1)
	flash := FlashCrowd(g, FlashParams{}, 1, 3)
	n := g.NumNodes()
	// Entry-wise flash/gravity ratios take exactly two values (1 and
	// Surge, both times the normalization scale); only one destination
	// column may contain surged entries.
	lo := math.Inf(1)
	for i, v := range flash.D {
		if grav.D[i] > 0 {
			lo = math.Min(lo, v/grav.D[i])
		}
	}
	surgedCols := 0
	for d := 0; d < n; d++ {
		surged := false
		for s := 0; s < n; s++ {
			if s == d {
				continue
			}
			if flash.At(graph.NodeID(s), graph.NodeID(d))/grav.At(graph.NodeID(s), graph.NodeID(d)) > 10*lo {
				surged = true
			}
		}
		if surged {
			surgedCols++
		}
	}
	if surgedCols != 1 {
		t.Errorf("%d surged destination columns, want 1", surgedCols)
	}
}

func TestTimeOfDayStaysInsideBox(t *testing.T) {
	g := testGraph(t)
	box := demand.MarginBox(demand.Gravity(g, 1), 2)
	steps := TimeOfDay(box, 24, 0.2, 9)
	if len(steps) != 24 {
		t.Fatalf("%d steps, want 24", len(steps))
	}
	for i, m := range steps {
		if !box.Contains(m) {
			t.Errorf("step %d leaves the box", i)
		}
	}
	// Deterministic, and the diurnal swing is visible: the peak step
	// carries more total demand than the trough.
	again := TimeOfDay(box, 24, 0.2, 9)
	for i := range steps {
		if !sameMatrix(steps[i], again[i]) {
			t.Fatalf("step %d differs across runs", i)
		}
	}
	lo, hi := math.Inf(1), 0.0
	for _, m := range steps {
		tot := m.Total()
		lo = math.Min(lo, tot)
		hi = math.Max(hi, tot)
	}
	if hi <= lo*1.5 {
		t.Errorf("diurnal swing too flat: total range [%g, %g]", lo, hi)
	}
}
