package delta

import (
	"testing"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/obs"
)

// TestStalledSubscriberDropsCounted pins the fix for the silent-event-loss
// bug: a subscriber that never drains its channel misses events once the
// buffer fills, and every miss must now be counted — the controller still
// never blocks, other subscribers still get every event, and the loss is
// visible through Session.Dropped.
func TestStalledSubscriberDropsCounted(t *testing.T) {
	cfg := testCfg()
	cfg.OptIters = 60
	cfg.AdvIters = 2
	s, _ := newNSFSession(t, cfg)

	stalled, cancelStalled := s.Subscribe() // never drained
	defer cancelStalled()
	live, cancelLive := s.Subscribe()
	defer cancelLive()

	// The subscriber buffer is 16; drive 20 events so the stalled channel
	// overflows by exactly 4. Lies events are cheap (no re-optimization).
	const total = 20
	for i := 0; i < total; i++ {
		if _, err := s.Lies(1); err != nil {
			t.Fatal(err)
		}
		// The live subscriber drains as it goes and must see everything.
		select {
		case e := <-live:
			if e.Kind != EventLies {
				t.Fatalf("live subscriber got %q, want lies", e.Kind)
			}
		default:
			t.Fatalf("live subscriber missed event %d", i)
		}
	}

	wantDropped := uint64(total - cap(stalled))
	if got := s.Dropped(); got != wantDropped {
		t.Fatalf("Dropped() = %d, want %d (buffer %d, events %d)", got, wantDropped, cap(stalled), total)
	}
	// The stalled channel still holds the first buffer-full of events in
	// order — loss is tail-drop, not corruption.
	first := <-stalled
	if first.Kind != EventLies || len(stalled) != cap(stalled)-1 {
		t.Fatalf("stalled channel head %q, %d buffered", first.Kind, len(stalled)+1)
	}
}

// TestTracingParity is the tentpole's determinism acceptance test: with a
// Tracer attached (spans recorded through session → oblivious → gpopt →
// lp) the session must produce bit-identical results to an untraced run,
// at every worker count.
func TestTracingParity(t *testing.T) {
	if testing.Short() {
		t.Skip("parity sweep in -short mode")
	}
	run := func(workers int, tracer *obs.Tracer) *Session {
		cfg := testCfg()
		cfg.OptIters = 80
		cfg.AdvIters = 2
		cfg.Workers = workers
		cfg.Tracer = tracer
		s, base := newNSFSession(t, cfg)
		if _, err := s.UpdateBounds(demand.MarginBox(base.Clone().Scale(1.2), 2.5)); err != nil {
			t.Fatal(err)
		}
		link := s.Base().Links()[2]
		if _, err := s.Fail(link); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Recover(link); err != nil {
			t.Fatal(err)
		}
		return s
	}

	plain := run(1, nil)
	tracer := obs.NewTracer()
	traced := run(1, tracer)
	tracer4 := obs.NewTracer()
	traced4 := run(4, tracer4)

	for name, other := range map[string]*Session{"traced w=1": traced, "traced w=4": traced4} {
		if plain.Solved().Perf.Ratio != other.Solved().Perf.Ratio {
			t.Fatalf("%s: PERF %v differs from untraced %v", name, other.Solved().Perf.Ratio, plain.Solved().Perf.Ratio)
		}
		a, b := plain.Routing(), other.Routing()
		for dst := range a.Phi {
			for e := range a.Phi[dst] {
				if a.Phi[dst][e] != b.Phi[dst][e] {
					t.Fatalf("%s: Phi[%d][%d] differs: %v vs %v", name, dst, e, a.Phi[dst][e], b.Phi[dst][e])
				}
			}
		}
	}

	// The traced runs must actually have recorded the pipeline stages.
	names := make(map[string]bool)
	parents := make(map[uint64]uint64)
	byID := make(map[uint64]obs.SpanRecord)
	for _, r := range tracer.Records() {
		names[r.Name] = true
		parents[r.ID] = r.Parent
		byID[r.ID] = r
	}
	// The session's adversary normalizes its candidates through PerfTop,
	// which records each exact solve as an lp.solve span under its
	// oblivious.adversary span.
	for _, want := range []string{
		"session.init", "session.update", "session.fail", "session.recover",
		"oblivious.optimize", "oblivious.round", "oblivious.adversary",
		"gpopt.run", "lp.solve",
	} {
		if !names[want] {
			t.Errorf("traced run recorded no %q span", want)
		}
	}
	// Span tree sanity: every non-root parent exists and contains its child.
	for id, parent := range parents {
		if parent == 0 {
			continue
		}
		p, ok := byID[parent]
		if !ok {
			t.Fatalf("span %d has unknown parent %d", id, parent)
		}
		c := byID[id]
		if c.Start < p.Start || c.Start+c.Dur > p.Start+p.Dur {
			t.Errorf("span %s [%d,%d) escapes parent %s [%d,%d)",
				c.Name, c.Start, c.Start+c.Dur, p.Name, p.Start, p.Start+p.Dur)
		}
	}
	if tracer.Len() == 0 || tracer4.Len() == 0 {
		t.Fatal("tracer recorded nothing")
	}
}

// TestFailoverPlanTraced checks that the precomputed failover plan's solves
// are traced: every survivor solve records its oblivious.optimize span tree
// beneath the session.failover_plan span.
func TestFailoverPlanTraced(t *testing.T) {
	cfg := testCfg()
	cfg.OptIters = 40
	cfg.AdvIters = 2
	cfg.PrecomputeFailover = true
	cfg.Tracer = obs.NewTracer()
	s, _ := newNSFSession(t, cfg)

	byID := make(map[uint64]obs.SpanRecord)
	var plan uint64
	for _, r := range cfg.Tracer.Records() {
		byID[r.ID] = r
		if r.Name == "session.failover_plan" {
			plan = r.ID
		}
	}
	if plan == 0 {
		t.Fatal("no session.failover_plan span")
	}
	under := 0
	for _, r := range byID {
		if r.Name != "oblivious.optimize" {
			continue
		}
		for p := r.Parent; p != 0; p = byID[p].Parent {
			if p == plan {
				under++
				break
			}
		}
	}
	survivors := 0
	for _, sc := range s.plan {
		if !sc.Disconnected {
			survivors++
		}
	}
	if survivors == 0 || under != survivors {
		t.Fatalf("%d oblivious.optimize spans under session.failover_plan, want one per survivor (%d)", under, survivors)
	}
}
