package oblivious

import (
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/gpopt"
	"github.com/coyote-te/coyote/internal/topo"
)

// TestWithBoxSharesCaches checks that a box-swapped evaluator reuses the
// receiver's OPTDAG cache and evaluates correctly under the new box.
func TestWithBoxSharesCaches(t *testing.T) {
	g, err := topo.Load("NSF")
	if err != nil {
		t.Fatal(err)
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	base := demand.Gravity(g, 1)
	box1 := demand.MarginBox(base, 2)
	ev1 := NewEvaluator(g, dags, box1, EvalConfig{Samples: 2, Seed: 1})

	D := base.Clone()
	norm := ev1.OptDAG(D)

	box2 := demand.MarginBox(base.Clone().Scale(1.3), 2)
	ev2 := ev1.WithBox(box2)
	if ev2.cache != ev1.cache {
		t.Fatal("WithBox must share the OPTDAG/max-flow cache")
	}
	if got := ev2.OptDAG(D); got != norm {
		t.Fatalf("shared cache returned %v, want %v", got, norm)
	}
	if ev2.Box != box2 {
		t.Fatal("WithBox must install the new box")
	}

	// The derived evaluator must produce a finite, sane evaluation.
	r := ECMPOnDAGs(g, dags)
	res := ev2.Perf(r)
	if !(res.Ratio >= 1-1e-9) {
		t.Fatalf("PERF under the swapped box = %v, want ≥ 1", res.Ratio)
	}
}

// TestWarmCarryRecompute exercises Options.Warm and Options.Carry: a
// recompute on a perturbed box that reuses the previous optimizer state and
// critical matrices must stay within 1% of a cold recompute on the same
// inputs while running fewer optimizer iterations.
func TestWarmCarryRecompute(t *testing.T) {
	g, err := topo.Load("NSF")
	if err != nil {
		t.Fatal(err)
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	base := demand.Gravity(g, 1)
	evalCfg := EvalConfig{Samples: 4, Seed: 7}
	coldOpts := Options{
		OptIters: 250,
		AdvIters: 4,
	}

	// Initial cold optimization.
	ev := NewEvaluator(g, dags, demand.MarginBox(base, 2), evalCfg)
	_, rep := ev.Optimize(coldOpts)
	if rep.Warm == nil {
		t.Fatal("Report.Warm is nil")
	}
	if len(rep.Critical) == 0 {
		t.Fatal("Report.Critical is empty")
	}

	// Perturb the demand box and recompute warm (fewer iterations, carried
	// state) and cold (full effort, from scratch).
	perturbed := demand.MarginBox(base.Clone().Scale(1.2), 2.2)
	warmEv := ev.WithBox(perturbed)
	warmOpts := Options{
		OptIters: 80,
		AdvIters: 2,
		Warm:     rep.Warm,
		Carry:    rep.Critical,
	}
	_, warmRep := warmEv.Optimize(warmOpts)

	coldEv := NewEvaluator(g, dags, perturbed, evalCfg)
	_, coldRep := coldEv.Optimize(coldOpts)

	if warmRep.Perf.Ratio > coldRep.Perf.Ratio*1.01 {
		t.Fatalf("warm recompute PERF %v worse than 1%% over cold %v",
			warmRep.Perf.Ratio, coldRep.Perf.Ratio)
	}
}

// TestWarmMismatchedOptimizerIgnored: a Warm optimizer built for different
// DAGs must be ignored, not crash or corrupt the run.
func TestWarmMismatchedOptimizerIgnored(t *testing.T) {
	g, err := topo.Load("NSF")
	if err != nil {
		t.Fatal(err)
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	otherDags := dagx.BuildAll(g, dagx.Augmented)
	stale := gpopt.New(g, otherDags, gpopt.Config{Iters: 10})

	box := demand.MarginBox(demand.Gravity(g, 1), 2)
	ev := NewEvaluator(g, dags, box, EvalConfig{Samples: 2, Seed: 1})
	_, rep := ev.Optimize(Options{
		OptIters: 40,
		AdvIters: 1,
		Warm:     stale,
	})
	if rep.Warm == stale {
		t.Fatal("mismatched warm optimizer should have been replaced")
	}
	if !(rep.Perf.Ratio >= 1-1e-9) {
		t.Fatalf("PERF = %v, want ≥ 1", rep.Perf.Ratio)
	}
}
