package oblivious

import (
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/topo"
)

// TestPerfTopAllocs caps the allocations of a warm adversary call: ECMP on
// Geant's augmented DAGs, a margin-2 gravity box, k = 4. Once the OPTDAG
// cache and the scratch pool are warm, a call allocates its corner matrices
// and results, one load-kernel scratch set per candidate, one propagation
// buffer for the load coefficients, whose table lives in the pooled scratch,
// and little else: about 260 objects. One coefficient row per (destination,
// source) cost some 800, and a per-destination MxLU some 6 000.
func TestPerfTopAllocs(t *testing.T) {
	g, err := topo.Load("Geant")
	if err != nil {
		t.Fatal(err)
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	ev := NewEvaluator(g, dags, demand.MarginBox(demand.Gravity(g, 1), 2), EvalConfig{Seed: 1, Workers: 1})
	r := ECMPOnDAGs(g, dags)
	for i := 0; i < 3; i++ {
		ev.PerfTop(r, 4)
	}
	allocs := testing.AllocsPerRun(5, func() { ev.PerfTop(r, 4) })
	if allocs > 400 {
		t.Fatalf("warm PerfTop allocates %.0f objects per call, want ≤ 400", allocs)
	}
	t.Logf("warm PerfTop: %.0f allocations per call", allocs)
}
