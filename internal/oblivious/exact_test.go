package oblivious

import (
	"context"
	"maps"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/topo"
)

// exactCells are PerfExact of ECMP on the augmented DAGs over the gravity
// margin boxes, as the slave LP computes them: network, margin, PERF.
var exactCells = []struct {
	name   string
	margin float64
	want   float64
}{
	{"Abilene", 1.5, 1.8885869565217395},
	{"Abilene", 2, 2.2536764705882355},
	{"Abilene", 3, 2.5801186943620174},
	{"NSF", 1.5, 2.1871358841127382},
	{"NSF", 2, 2.7716390423572754},
	{"NSF", 3, 3.4379977246871438},
	{"Geant", 1.5, 2.2303558240135049},
	{"Geant", 2, 2.6769540942928032},
	{"Geant", 3, 3.2754734912769012},
}

// ecmpEvaluator is the evaluator of an exactCells cell and its ECMP routing.
func ecmpEvaluator(tb testing.TB, name string, margin float64) (*Evaluator, *pdrouting.Routing) {
	tb.Helper()
	g, err := topo.Load(name)
	if err != nil {
		tb.Fatal(err)
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	ev := NewEvaluator(g, dags, demand.MarginBox(demand.Gravity(g, 1), margin), EvalConfig{Workers: 1})
	return ev, ECMPOnDAGs(g, dags)
}

// TestPerfExactPins holds PerfExact to the slave LP's value on every cell,
// pinned and, on the Abilene and NSF cells, recomputed by the oracle; the
// worst matrix it reports must lie in the box and attain its ratio.
func TestPerfExactPins(t *testing.T) {
	for _, c := range exactCells {
		ev, r := ecmpEvaluator(t, c.name, c.margin)
		got, err := ev.PerfExact(context.Background(), r)
		if err != nil {
			t.Fatalf("%s %g: %v", c.name, c.margin, err)
		}
		if math.Abs(got.Ratio-c.want) > 1e-9*c.want {
			t.Errorf("%s %g: PerfExact = %.17g, pinned %.17g", c.name, c.margin, got.Ratio, c.want)
		}
		if !ev.Box.Contains(got.WorstDM) {
			t.Errorf("%s %g: worst matrix outside the box", c.name, c.margin)
		}
		if ratio := ev.MaxUtilization(r, got.WorstDM) / ev.OptDAG(got.WorstDM); math.Abs(ratio-got.Ratio) > 1e-9*got.Ratio {
			t.Errorf("%s %g: worst matrix has ratio %.17g, reported %.17g", c.name, c.margin, ratio, got.Ratio)
		}
		if c.name == "Geant" {
			continue
		}
		oracle, err := slavePerf(ev, r)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Ratio-oracle) > 1e-9*oracle {
			t.Errorf("%s %g: PerfExact = %.17g, slave LP %.17g", c.name, c.margin, got.Ratio, oracle)
		}
	}
}

// TestPerfExactWorkCounts pins the LP work of one PerfExact on Geant ECMP at
// margin 2 from an empty ring, at one worker and at four. The counts are
// deterministic; a change that means to move them re-reads them from this
// test's failure output. The slave LP it replaced took 72 solves and
// 16 158 pivots here.
func TestPerfExactWorkCounts(t *testing.T) {
	want := map[string]float64{
		"coyote_lp_solves_total":            62,
		"coyote_lp_iterations_total":        2856,
		"coyote_lp_phase1_iterations_total": 65,
		"coyote_lp_refactorizations_total":  89,
		"coyote_lp_warm_attempts_total":     62,
		"coyote_lp_warm_hits_total":         62,
	}
	const wantSeparations = 28
	for _, workers := range []int{1, 4} {
		ev, r := ecmpEvaluator(t, "Geant", 2)
		ev.cfg.Workers = workers
		tracer := obs.NewTracer()
		before := obs.Default.Snapshot()
		if _, err := ev.PerfExact(obs.WithTracer(context.Background(), tracer), r); err != nil {
			t.Fatal(err)
		}
		got := map[string]float64{}
		for k, v := range obs.Default.Snapshot().Since(before) {
			if strings.HasPrefix(k, "coyote_lp_") && v != 0 {
				got[k] = v
			}
		}
		if !maps.Equal(got, want) {
			t.Errorf("workers=%d: LP work of one PerfExact\n got %v\nwant %v", workers, got, want)
		}
		for _, rec := range tracer.Records() {
			for _, a := range rec.Attrs {
				if rec.Name == "oblivious.perf_exact" && a.Key == "separations" && a.Val != wantSeparations {
					t.Errorf("workers=%d: %v separations, want %d", workers, a.Val, wantSeparations)
				}
			}
		}
	}
}

// FuzzPerfExact holds PerfExact to the slave-LP oracle on Abilene under
// random splitting ratios over the augmented DAGs and a random margin.
func FuzzPerfExact(f *testing.F) {
	f.Add(int64(1), uint8(10))
	f.Add(int64(7), uint8(0))
	f.Add(int64(42), uint8(29))
	g, err := topo.Load("Abilene")
	if err != nil {
		f.Fatal(err)
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	base := demand.Gravity(g, 1)
	f.Fuzz(func(t *testing.T, seed int64, m uint8) {
		rng := rand.New(rand.NewSource(seed))
		r := pdrouting.NewZero(g, dags)
		for dst, dag := range dags {
			for u := 0; u < g.NumNodes(); u++ {
				out := dag.OutEdges(g, graph.NodeID(u))
				sum := 0.0
				for _, id := range out {
					r.Phi[dst][id] = rng.Float64() + 1e-3
					sum += r.Phi[dst][id]
				}
				for _, id := range out {
					r.Phi[dst][id] /= sum
				}
			}
		}
		ev := NewEvaluator(g, dags, demand.MarginBox(base, 1+float64(m%30)/10), EvalConfig{Workers: 1})
		got, err := ev.PerfExact(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := slavePerf(ev, r)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Ratio-want) > 1e-9*want {
			t.Fatalf("PerfExact = %.17g, slave LP %.17g", got.Ratio, want)
		}
	})
}
