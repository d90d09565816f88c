package gpopt

import (
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/topo"
)

// TestBackwardMatchesReference runs 50 Adam steps on Geant with the
// production step and with the scalar step that has backwardReference
// swapped in, and requires every θ to agree bit for bit, at one worker and
// at four.
func TestBackwardMatchesReference(t *testing.T) {
	g, err := topo.Load("Geant")
	if err != nil {
		t.Fatal(err)
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	n := g.NumNodes()
	var scenarios []Scenario
	for s := 0; s < 3; s++ {
		D := demand.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && (i+2*j+s)%4 != 0 {
					D.Set(graph.NodeID(i), graph.NodeID(j), 1+float64((i*j+s)%7))
				}
			}
		}
		scenarios = append(scenarios, NewScenario(g, D, 0.5+float64(s)))
	}
	for _, workers := range []int{1, 4} {
		cfg := Config{Iters: 50, Workers: workers}
		got := New(g, dags, cfg)
		ref := newScalarStepper(got)
		ref.recomputeInflow = true
		got.Run(scenarios)
		ref.run(scenarios, cfg.Iters)
		sameBits(t, "backwardReference", "theta", got.theta, ref.theta)
	}
}
