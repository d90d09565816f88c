package oblivious

import (
	"context"
	"math"
	"sync"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/topo"
)

// evalAt runs a fixed serialized call sequence — ECMP Perf, PerfTop, and a
// short adversarial optimization — against a fresh evaluator with the given
// worker count, returning every ratio it produced.
func evalAt(t *testing.T, name string, workers int) []float64 {
	t.Helper()
	g, err := topo.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	base := demand.Gravity(g, 1)
	box := demand.MarginBox(base, 2)
	dags := dagx.BuildAll(g, dagx.Augmented)
	cfg := EvalConfig{Samples: 4, Seed: 7, Workers: workers}
	ev := NewEvaluator(g, dags, box, cfg)

	var out []float64
	ecmp := ECMPOnDAGs(g, dags)
	out = append(out, ev.Perf(ecmp).Ratio)
	for _, res := range ev.PerfTop(ecmp, 3) {
		out = append(out, res.Ratio, res.MxLU, res.Norm)
	}
	routing, rep := ev.Optimize(context.Background(), Options{
		OptIters: 40,
		AdvIters: 2,
	})
	out = append(out, rep.Perf.Ratio)
	for t := range routing.Phi {
		out = append(out, routing.Phi[t]...)
	}
	return out
}

// TestEvaluatorWorkerParity asserts the tentpole's determinism contract at
// the evaluator level: the full adversarial evaluation pipeline produces
// bit-identical ratios and splitting vectors for any worker count, across
// several corpus topologies.
func TestEvaluatorWorkerParity(t *testing.T) {
	if testing.Short() {
		t.Skip("parity sweep in -short mode")
	}
	// Two topologies here; the public-API parity test at the repo root
	// covers three (the documented acceptance bar) end-to-end.
	for _, name := range []string{"NSF", "Abilene"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			serial := evalAt(t, name, 1)
			for _, workers := range []int{2, 4} {
				parallel := evalAt(t, name, workers)
				if len(parallel) != len(serial) {
					t.Fatalf("workers=%d: %d values, serial produced %d", workers, len(parallel), len(serial))
				}
				for i := range serial {
					if parallel[i] != serial[i] {
						t.Fatalf("workers=%d: value %d = %v, serial %v (must be bit-identical)", workers, i, parallel[i], serial[i])
					}
				}
			}
		})
	}
}

// TestEvaluatorConcurrentSmoke hammers one shared evaluator from many
// goroutines; run under -race it proves the caches and pools are data-race
// free when callers share an evaluator.
func TestEvaluatorConcurrentSmoke(t *testing.T) {
	g, err := topo.Load("NSF")
	if err != nil {
		t.Fatal(err)
	}
	base := demand.Gravity(g, 1)
	box := demand.MarginBox(base, 2)
	dags := dagx.BuildAll(g, dagx.Augmented)
	ev := NewEvaluator(g, dags, box, EvalConfig{Samples: 3, Seed: 1, Workers: 4})
	ecmp := ECMPOnDAGs(g, dags)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				if r := ev.Perf(ecmp); r.Ratio < 1-1e-6 {
					t.Errorf("Perf ratio %v < 1", r.Ratio)
				}
			case 1:
				if u := ecmp.MaxUtilization(box.Max); u <= 0 {
					t.Errorf("MaxUtilization = %v", u)
				}
			case 2:
				if v := ev.OptDAG(box.Max); v <= 0 {
					t.Errorf("OptDAG = %v", v)
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestPerfTopFPTASWorkerParity drives PerfTop past the exact/FPTAS
// crossover (ExactNodeLimit 1 on a 42-node graph), where the corner
// normalizations all solve on the evaluator's one shared mcf.Approx index,
// one candidate at a time on the caller's goroutine. The results are
// bit-identical at Workers 1 and 4, a value that sizes only gpopt.
func TestPerfTopFPTASWorkerParity(t *testing.T) {
	if testing.Short() {
		t.Skip("parity sweep in -short mode")
	}
	g, err := scen.Generate("ba", scen.Params{N: 42, M: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	box := demand.MarginBox(demand.Gravity(g, 1), 2)
	dags := dagx.BuildAll(g, dagx.Augmented)
	ecmp := ECMPOnDAGs(g, dags)
	perfTop := func(workers int) []Result {
		ev := NewEvaluator(g, dags, box, EvalConfig{Samples: 3, Seed: 7, Eps: 0.4, ExactNodeLimit: 1, Workers: workers})
		return ev.PerfTop(ecmp, 4)
	}
	serial := perfTop(1)
	if len(serial) == 0 || math.IsInf(serial[0].Ratio, 0) {
		t.Fatalf("serial PerfTop found no normalizable matrix: %+v", serial)
	}
	parallel := perfTop(4)
	if len(parallel) != len(serial) {
		t.Fatalf("workers=4: %d results, serial %d", len(parallel), len(serial))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if math.Float64bits(s.Ratio) != math.Float64bits(p.Ratio) ||
			math.Float64bits(s.MxLU) != math.Float64bits(p.MxLU) ||
			math.Float64bits(s.Norm) != math.Float64bits(p.Norm) {
			t.Fatalf("result %d: workers=4 (%v, %v, %v), serial (%v, %v, %v): must be bit-identical",
				i, p.Ratio, p.MxLU, p.Norm, s.Ratio, s.MxLU, s.Norm)
		}
	}
}
