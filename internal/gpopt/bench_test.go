package gpopt

import (
	"fmt"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/topo"
)

// BenchmarkOptimizerStep measures one full gradient iteration of the
// splitting optimizer — materialize, forward, smooth-max, backward, Adam —
// on Geant with S dense demand scenarios: the first, a middle and the last
// round of a default-effort Compute. Run with -benchmem: 0 allocs/op is the
// arena contract (pinned hard by TestRunStepAllocs); ns/op over S reads off
// the cost per scenario lane.
func BenchmarkOptimizerStep(b *testing.B) {
	g, err := topo.Load("Geant")
	if err != nil {
		b.Fatal(err)
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	for _, S := range []int{3, 16, 28} {
		b.Run(fmt.Sprintf("S=%d", S), func(b *testing.B) {
			o := New(g, dags, Config{Iters: 1, Workers: 1})
			if !o.prepare(denseScenarios(g, S, 1)) {
				b.Fatal("scenario set produced no work")
			}
			for b.Loop() {
				o.stepOnce(0.1, nil, nil, nil)
			}
		})
	}
}
