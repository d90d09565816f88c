package oblivious

import (
	"runtime"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/scen"
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

// TestPerfTopObliviousBoxAllocs caps a warm adversary call on an oblivious
// box (Box.Min all zero), where the single-pair adversary runs: ECMP on
// Geant's augmented DAGs, k = 4. The pairs are ranked in closed form and
// only the 8 kept get a matrix, so a call allocates about what a margin-box
// call does: about 270 objects and 0.6 MB. A matrix for every one of the
// 462 pairs cost some 1 200 objects and 2.5 MB.
func TestPerfTopObliviousBoxAllocs(t *testing.T) {
	g, err := topo.Load("Geant")
	if err != nil {
		t.Fatal(err)
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	ev := NewEvaluator(g, dags, demand.ObliviousBox(g.NumNodes(), 1), EvalConfig{Seed: 1, Workers: 1})
	r := ECMPOnDAGs(g, dags)
	for i := 0; i < 3; i++ {
		ev.PerfTop(r, 4)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { ev.PerfTop(r, 4) })
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call besides the measured ones.
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) / (1 << 20)
	t.Logf("warm oblivious-box PerfTop: %.0f allocations, %.2f MB per call", allocs, mb)
	if allocs > 400 || mb > 1 {
		t.Fatalf("warm oblivious-box PerfTop allocates %.0f objects and %.2f MB per call, want ≤ 400 and ≤ 1 MB", allocs, mb)
	}
}

// BenchmarkPerfTopBA42 is one adversary call at the scale-ba42 shape: ECMP
// on the 42-node generated topology's augmented DAGs, a margin-2 gravity
// box, k = 4, FPTAS normalizations at eps 0.4. Each op gets a fresh
// evaluator whose ring holds the certificates of the box maximum and
// midpoint, as Optimize's seed normalizations leave it; only the PerfTop
// call is timed. solves/op and pruned/op are deterministic.
func BenchmarkPerfTopBA42(b *testing.B) {
	g, err := scen.Generate("ba", scen.Params{N: 42, M: 2, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	box := demand.MarginBox(demand.Gravity(g, 1), 2)
	r := ECMPOnDAGs(g, dags)
	b.ReportAllocs()
	var solved, pruned float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ev := NewEvaluator(g, dags, box, EvalConfig{Samples: 8, Seed: 1, Eps: 0.4, Workers: 1})
		ev.OptDAG(box.Max)
		ev.OptDAG(box.Midpoint())
		before := obs.Default.Snapshot()
		b.StartTimer()
		ev.PerfTop(r, 4)
		b.StopTimer()
		moved := obs.Default.Snapshot().Since(before)
		solved += movedBy(b, moved, "coyote_oblivious_candidates_total{solved}")
		pruned += movedBy(b, moved, "coyote_oblivious_candidates_total{pruned}")
		b.StartTimer()
	}
	b.ReportMetric(solved/float64(b.N), "solves/op")
	b.ReportMetric(pruned/float64(b.N), "pruned/op")
}
