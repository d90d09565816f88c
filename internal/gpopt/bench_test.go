package gpopt

import (
	"fmt"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/topo"
)

// BenchmarkOptimizerStep measures one full gradient iteration of the
// splitting optimizer — materialize, forward, smooth-max, backward, Adam —
// on Geant and on the 42-node generated topology of the benchmark's
// scale-ba42 workload, with S dense demand scenarios: the first, a middle
// and the last round of a default-effort Compute; and on NSF at S = 32, the
// scenario count of an online-nsf session event (delta.scenarios_per_event).
// Each shape runs at Workers 1 and 2, which reads off what the
// per-destination fan-out buys. Run with -benchmem: 0 allocs/op at Workers 1
// is the arena contract (pinned hard by TestRunStepAllocs); ns/op over S
// reads off the cost per scenario lane.
func BenchmarkOptimizerStep(b *testing.B) {
	geant, err := topo.Load("Geant")
	if err != nil {
		b.Fatal(err)
	}
	nsf, err := topo.Load("NSF")
	if err != nil {
		b.Fatal(err)
	}
	ba42, err := scen.Generate("ba", scen.Params{N: 42, M: 2, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		S    []int
	}{{"Geant", geant, []int{3, 16, 28}}, {"ba42", ba42, []int{3, 16, 28}}, {"NSF", nsf, []int{32}}} {
		dags := dagx.BuildAll(tc.g, dagx.Augmented)
		for _, S := range tc.S {
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/S=%d/Workers=%d", tc.name, S, workers), func(b *testing.B) {
					o := New(tc.g, dags, Config{Iters: 1, Workers: workers})
					if !o.prepare(denseScenarios(tc.g, S, 1)) {
						b.Fatal("scenario set produced no work")
					}
					for b.Loop() {
						o.stepOnce(0.1, nil, nil, nil)
					}
				})
			}
		}
	}
}
