package oblivious

import (
	"context"
	"math"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/topo"
)

// TestPerfExactSpans covers the exact adversary's tracing: with a tracer in
// the context, PerfExact must record one perf_exact span over a pinned
// number of lp.solve spans (its master and separation solves), and must
// return exactly the value of an untraced PerfExact on the same routing
// (tracing never touches the numeric path).
func TestPerfExactSpans(t *testing.T) {
	g, ids := fig1Graph()
	dags := fig1cDAGs(t, g, ids)
	r := goldenRouting(t, g, ids, dags)
	ev := NewEvaluator(g, dags, box02(g, ids), EvalConfig{Samples: 16, Seed: 1})

	plain, err := ev.PerfExact(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}

	tracer := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tracer)
	traced, err := ev.PerfExact(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Ratio != plain.Ratio {
		t.Fatalf("traced PerfExact = %g, untraced = %g", traced.Ratio, plain.Ratio)
	}
	if math.Abs(traced.Ratio-(math.Sqrt(5)-1)) > 1e-6 {
		t.Fatalf("PerfExact = %g, want %g", traced.Ratio, math.Sqrt(5)-1)
	}

	var roots, solves, separations int
	for _, rec := range tracer.Records() {
		switch rec.Name {
		case "oblivious.perf_exact":
			roots++
			for _, a := range rec.Attrs {
				if a.Key == "separations" {
					separations = a.Val.(int)
				}
			}
		case "lp.solve":
			solves++
		}
	}
	if roots != 1 {
		t.Fatalf("recorded %d perf_exact spans, want 1", roots)
	}
	// PerfExact leaves the ring empty, so each call seeds its pool with a
	// separation at Box.Max, takes one master step on the first link and
	// separates its matrix, which is exact; every other link is dropped
	// without a solve.
	if solves != 3 || separations != 2 {
		t.Fatalf("recorded %d lp.solve spans and %d separations, want 3 and 2", solves, separations)
	}
}

// TestAdversarySpanAccountsForCandidates: the oblivious.adversary span says
// what became of every candidate — cached + solved + pruned = candidates —
// the counter family moves by the same amounts, each solved candidate left
// one lp.solve span with its phase counts under the adversary span, and the
// second call on the same routing finds every normalization it needs cached
// or bounded away.
func TestAdversarySpanAccountsForCandidates(t *testing.T) {
	g, err := topo.Load("NSF")
	if err != nil {
		t.Fatal(err)
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	ev := NewEvaluator(g, dags, demand.MarginBox(demand.Gravity(g, 1), 2), EvalConfig{Samples: 4, Seed: 1})
	r := ECMPOnDAGs(g, dags)

	tracer := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tracer)
	before := obs.Default.Snapshot()
	ev.PerfTopCtx(ctx, r, 4)
	ev.PerfTopCtx(ctx, r, 4)
	moved := obs.Default.Snapshot().Since(before)

	var total [3]int // cached, solved, pruned over both calls
	calls := 0
	adversary := map[uint64]bool{}
	for _, rec := range tracer.Records() {
		if rec.Name == "oblivious.adversary" {
			adversary[rec.ID] = true
		}
	}
	solveSpans := 0
	for _, rec := range tracer.Records() {
		if rec.Name == "lp.solve" {
			if !adversary[rec.Parent] {
				t.Fatalf("lp.solve span %d is not under an adversary span", rec.ID)
			}
			keys := map[string]bool{}
			for _, a := range rec.Attrs {
				keys[a.Key] = true
			}
			for _, key := range []string{"phase1_iterations", "refactorizations", "stability_refactorizations"} {
				if !keys[key] {
					t.Fatalf("lp.solve span lacks the %q attribute: %+v", key, rec.Attrs)
				}
			}
			solveSpans++
		}
		if rec.Name != "oblivious.adversary" {
			continue
		}
		attr := map[string]int{}
		for _, a := range rec.Attrs {
			if v, ok := a.Val.(int); ok {
				attr[a.Key] = v
			}
		}
		for _, key := range []string{"candidates", "cached", "solved", "pruned", "waves"} {
			if _, ok := attr[key]; !ok {
				t.Fatalf("adversary span lacks the %q attribute: %+v", key, rec.Attrs)
			}
		}
		if attr["cached"]+attr["solved"]+attr["pruned"] != attr["candidates"] {
			t.Fatalf("cached %d + solved %d + pruned %d ≠ candidates %d", attr["cached"], attr["solved"], attr["pruned"], attr["candidates"])
		}
		if wantWaves := (attr["solved"] + boundWave - 1) / boundWave; attr["waves"] < wantWaves || attr["waves"] > attr["solved"] {
			t.Fatalf("%d waves for %d solves at wave size %d", attr["waves"], attr["solved"], boundWave)
		}
		if calls == 0 && (attr["solved"] == 0 || attr["pruned"] == 0) {
			t.Fatalf("first call solved %d and pruned %d candidates; want both positive", attr["solved"], attr["pruned"])
		}
		if calls == 1 && attr["solved"] != 0 {
			t.Fatalf("second call on the same routing solved %d candidates", attr["solved"])
		}
		total[0] += attr["cached"]
		total[1] += attr["solved"]
		total[2] += attr["pruned"]
		calls++
	}
	if calls != 2 {
		t.Fatalf("recorded %d adversary spans, want 2", calls)
	}
	if solveSpans != total[1] {
		t.Fatalf("recorded %d lp.solve spans under the adversary, want one per solved candidate (%d)", solveSpans, total[1])
	}
	var got [3]int
	for i, kind := range []string{"cached", "solved", "pruned"} {
		got[i] = int(movedBy(t, moved, "coyote_oblivious_candidates_total{"+kind+"}"))
	}
	if got != total {
		t.Fatalf("coyote_oblivious_candidates_total moved by %v (cached, solved, pruned), spans say %v", got, total)
	}
}
