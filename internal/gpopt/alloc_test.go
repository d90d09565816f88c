package gpopt

import (
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/topo"
)

// TestRunStepAllocs is the alloc-regression guard for the optimizer's inner
// loop (tier-1, run in CI): once New has sized the arenas and prepare has
// seen the scenario set, a full gradient iteration — materialize, forward,
// smooth-max, backward, Adam — must not allocate at all, and neither must
// prepare or a whole Run, closing objective included.
func TestRunStepAllocs(t *testing.T) {
	g, err := topo.Load("Geant")
	if err != nil {
		t.Fatal(err)
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	o := New(g, dags, Config{Iters: 3, Workers: 1})

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
		t.Fatal("scenario set produced no work")
	}
	// Warm up once so lazily-grown capacities (none expected) settle.
	o.stepOnce(0.1, nil, nil, nil)

	for _, tc := range []struct {
		what string
		fn   func()
	}{
		{"a gradient step", func() { o.stepOnce(0.1, nil, nil, nil) }},
		{"prepare", func() { o.prepare(scenarios) }},
		{"a whole Run", func() { o.Run(scenarios) }},
		{"a Run on a smaller set", func() { o.Run(scenarios[:2]) }},
	} {
		if allocs := testing.AllocsPerRun(20, tc.fn); allocs != 0 {
			t.Errorf("%s allocated %v times, want 0", tc.what, allocs)
		}
	}
}
