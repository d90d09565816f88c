package strategy

import (
	"maps"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/mcf"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/topo"
)

// semiObliviousFixture builds the semi-oblivious plan for topology name
// under a margin-2 gravity box.
func semiObliviousFixture(t *testing.T, name string) (*graph.Graph, *demand.Box, *semiObliviousPlan) {
	t.Helper()
	g, err := topo.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	box := demand.MarginBox(demand.Gravity(g, 1), 2)
	s, err := New("semi-oblivious", testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(s, g, box)
	if err != nil {
		t.Fatal(err)
	}
	return g, box, plan.(*semiObliviousPlan)
}

// boxMatrices draws k matrices inside box, each entry at its own random
// point between the box's minimum and maximum.
func boxMatrices(box *demand.Box, k int, seed int64) []*demand.Matrix {
	rng := rand.New(rand.NewSource(seed))
	dms := make([]*demand.Matrix, k)
	for i := range dms {
		dm := box.Min.Clone()
		for j := range dm.D {
			dm.D[j] += rng.Float64() * (box.Max.D[j] - box.Min.D[j])
		}
		dms[i] = dm
	}
	return dms
}

// TestAdaptDependsOnMatrixAlone: Adapt solves from the crash basis of the
// matrix it is given, so what an earlier call left in the plan cannot show.
// On NSF, Adapt(dm₂) after Adapt(dm₁) is bit for bit Adapt(dm₂) on a freshly
// built plan; and the adapted routing, when Adapt keeps it, has the min-MLU
// of dm₂ over the plan's support DAGs (MinMLUExact), to 1e-9.
func TestAdaptDependsOnMatrixAlone(t *testing.T) {
	g, box, used := semiObliviousFixture(t, "NSF")
	_, _, fresh := semiObliviousFixture(t, "NSF")
	dms := boxMatrices(box, 2, 3)
	if _, err := used.Adapt(dms[0]); err != nil {
		t.Fatal(err)
	}
	got, err := used.Adapt(dms[1])
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Adapt(dms[1])
	if err != nil {
		t.Fatal(err)
	}
	samePhi(t, "Adapt(dm₂) after Adapt(dm₁) vs on a fresh plan", got, want)

	exact, _, err := mcf.MinMLUExact(g, used.support, dms[1])
	if err != nil {
		t.Fatal(err)
	}
	if got == used.static {
		t.Fatal("Adapt kept the static routing; the fixture no longer exercises the adapted rates")
	}
	if mlu := got.MaxUtilization(dms[1]); math.Abs(mlu-exact) > 1e-9*(1+exact) {
		t.Fatalf("adapted MLU %.15g, MinMLUExact on the support DAGs %.15g", mlu, exact)
	}
}

// TestAdaptWorkCounts pins the LP work of 30 Adapt calls on Abilene, NSF and
// Geant, in the style of the root TestComputeWorkCounts: the counts are
// deterministic, every solve starts from its matrix's crash basis and none
// runs a phase-1 pivot. A change that means to move them re-reads them from
// this test's failure output. Reads process-wide lp counters, so no
// t.Parallel.
func TestAdaptWorkCounts(t *testing.T) {
	// The coyote_lp_ series that move; every other one stays at 0.
	work := func(solves, pivots float64) map[string]float64 {
		return map[string]float64{
			"coyote_lp_solves_total":           solves,
			"coyote_lp_iterations_total":       pivots,
			"coyote_lp_refactorizations_total": solves,
			"coyote_lp_warm_attempts_total":    solves,
			"coyote_lp_warm_hits_total":        solves,
		}
	}
	want := map[string]map[string]float64{
		"Abilene": work(30, 540),
		"NSF":     work(30, 770),
		"Geant":   work(30, 54),
	}
	for _, name := range []string{"Abilene", "NSF", "Geant"} {
		_, box, plan := semiObliviousFixture(t, name)
		before := obs.Default.Snapshot()
		for i, dm := range boxMatrices(box, 30, 1) {
			if _, err := plan.Adapt(dm); err != nil {
				t.Fatalf("%s matrix %d: %v", name, i, err)
			}
		}
		got := map[string]float64{}
		for k, v := range obs.Default.Snapshot().Since(before) {
			if strings.HasPrefix(k, "coyote_lp_") && v != 0 {
				got[k] = v
			}
		}
		if !maps.Equal(got, want[name]) {
			t.Errorf("%s: LP work of 30 Adapt calls\n got %v\nwant %v", name, got, want[name])
		}
	}
}
