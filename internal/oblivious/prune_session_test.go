package oblivious_test

import (
	"fmt"
	"testing"

	"github.com/coyote-te/coyote/internal/delta"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/topo"
)

// TestPerfTopMatchesExhaustiveInSession drives a live session through
// UpdateBounds, Fail and Recover — rebinds that share the OPTDAG cache and
// the ring of dual certificates across boxes, precomputed failover plans
// swapped in with their own evaluators, a recovery back onto the original
// one — and after every event checks the adversary on the session's own
// evaluator and routing against the exhaustive oracle: whatever history
// filled the caches, PerfTop returns the exhaustive top-k.
func TestPerfTopMatchesExhaustiveInSession(t *testing.T) {
	g, err := topo.Load("Abilene")
	if err != nil {
		t.Fatal(err)
	}
	base := demand.Gravity(g, 1)
	violations := oblivious.GlobalAdversaryStats().BoundViolations
	for _, workers := range []int{1, 4} {
		if oblivious.RaceDetector && workers == 1 {
			continue // the session costs minutes under -race; keep the run with a fan-out
		}
		s, err := delta.NewSession(g, demand.MarginBox(base, 2), delta.Config{
			OptIters: 40, AdvIters: 2, Samples: 4, Seed: 3, Workers: workers, PrecomputeFailover: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		links := g.Links()
		steps := []struct {
			name string
			do   func() (delta.Event, error)
		}{
			{"update", func() (delta.Event, error) { return s.UpdateBounds(demand.MarginBox(base.Clone().Scale(1.2), 2.2)) }},
			{"fail", func() (delta.Event, error) { return s.Fail(links[2]) }},
			{"update-failed", func() (delta.Event, error) { return s.UpdateBounds(demand.MarginBox(base.Clone().Scale(0.9), 1.8)) }},
			{"recover", func() (delta.Event, error) { return s.Recover(links[2]) }},
			{"fail-again", func() (delta.Event, error) { return s.Fail(links[7]) }},
			{"recover-again", func() (delta.Event, error) { return s.Recover(links[7]) }},
		}
		for _, st := range steps {
			if _, err := st.do(); err != nil {
				t.Fatalf("workers=%d %s: %v", workers, st.name, err)
			}
			cur := s.Solved()
			label := fmt.Sprintf("workers=%d after %s", workers, st.name)
			for _, k := range []int{4, 1} {
				oblivious.CheckPerfTop(t, label, cur.Ev, cur.Routing, k)
				oblivious.CheckPerfTop(t, label+" (ecmp)", cur.Ev, oblivious.ECMPOnDAGs(cur.Ev.G, cur.Ev.DAGs), k)
			}
		}
	}
	if v := oblivious.GlobalAdversaryStats().BoundViolations - violations; v != 0 {
		t.Errorf("%d dual certificates failed their soundness guard, want 0", v)
	}
}
