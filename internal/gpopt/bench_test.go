package gpopt

import (
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/topo"
)

// BenchmarkOptimizerStep measures one full gradient iteration of the
// splitting optimizer — materialize, forward, smooth-max, backward, Adam —
// on Geant with three demand scenarios. Run with -benchmem: the headline
// is the 0 allocs/op column (the arena refactor's contract, also pinned
// hard by TestRunStepAllocs).
func BenchmarkOptimizerStep(b *testing.B) {
	g, err := topo.Load("Geant")
	if err != nil {
		b.Fatal(err)
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	o := New(g, dags, Config{Iters: 1, Workers: 1})

	n := g.NumNodes()
	scenarios := make([]Scenario, 0, 3)
	for s := 0; s < 3; s++ {
		D := demand.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && (i+j+s)%3 == 0 {
					D.Set(graph.NodeID(i), graph.NodeID(j), 1+float64((i+s)%5))
				}
			}
		}
		scenarios = append(scenarios, NewScenario(g, D, 1))
	}
	if !o.prepare(scenarios) {
		b.Fatal("scenario set produced no tasks")
	}
	o.stepOnce(scenarios, 0.1, nil, nil, nil)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.stepOnce(scenarios, 0.1, nil, nil, nil)
	}
}
