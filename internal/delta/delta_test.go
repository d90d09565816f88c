package delta

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/topo"
)

// testCfg is a reduced-effort configuration that still exercises every
// incremental mechanism.
func testCfg() Config {
	return Config{
		OptIters: 200,
		AdvIters: 3,
		Samples:  3,
		Seed:     1,
	}
}

func newNSFSession(t *testing.T, cfg Config) (*Session, *demand.Matrix) {
	t.Helper()
	g, err := topo.Load("NSF")
	if err != nil {
		t.Fatal(err)
	}
	base := demand.Gravity(g, 1)
	s, err := NewSession(g, demand.MarginBox(base, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, base
}

func TestSessionInit(t *testing.T) {
	s, _ := newNSFSession(t, testCfg())
	cur := s.Solved()
	if !(cur.Perf.Ratio >= 1-1e-9) {
		t.Fatalf("initial PERF %v, want ≥ 1", cur.Perf.Ratio)
	}
	if cur.Perf.Ratio > cur.ECMPPerf+1e-9 {
		t.Fatalf("initial PERF %v worse than ECMP %v", cur.Perf.Ratio, cur.ECMPPerf)
	}
	events := s.Events()
	if len(events) != 1 || events[0].Kind != EventInit {
		t.Fatalf("events after init: %+v", events)
	}
	if err := s.Routing().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmUpdateWithinOnePercentOfCold is the acceptance criterion: for a
// perturbed demand box, Session.UpdateBounds (warm, reduced effort) must
// reach a PERF within 1% of a cold full-effort Compute on the same inputs.
func TestWarmUpdateWithinOnePercentOfCold(t *testing.T) {
	cfg := testCfg()
	s, base := newNSFSession(t, cfg)

	perturbed := demand.MarginBox(base.Clone().Scale(1.25), 2.4)
	ev, err := s.UpdateBounds(perturbed)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Warm {
		t.Fatal("UpdateBounds did not take the warm path")
	}

	// Cold reference: the batch pipeline at full (cold) session effort on
	// the same topology, DAGs, and box.
	g := s.Base()
	dags := dagx.BuildAll(g, dagx.Augmented)
	coldEv := oblivious.NewEvaluator(g, dags, perturbed, oblivious.EvalConfig{
		Samples: cfg.Samples, Seed: cfg.Seed,
	})
	_, coldRep := coldEv.Optimize(context.Background(), oblivious.Options{
		OptIters: cfg.OptIters,
		AdvIters: cfg.AdvIters,
	})

	cold := coldRep.Perf.Ratio
	warm := s.Solved().Perf.Ratio
	if warm > cold*1.01 {
		t.Fatalf("warm PERF %v not within 1%% of cold %v", warm, cold)
	}
}

func TestFailRecoverRoundTrip(t *testing.T) {
	s, _ := newNSFSession(t, testCfg())
	initial := s.Solved().Perf.Ratio

	link := s.Base().Links()[0]
	evFail, err := s.Fail(link)
	if err != nil {
		t.Fatal(err)
	}
	if evFail.Kind != EventFail {
		t.Fatalf("event kind %q, want fail", evFail.Kind)
	}
	if s.Graph().NumEdges() != s.Base().NumEdges()-2 {
		t.Fatalf("survivor has %d edges, want %d", s.Graph().NumEdges(), s.Base().NumEdges()-2)
	}
	if got := s.FailedLinks(); len(got) != 1 || got[0] != link {
		t.Fatalf("FailedLinks = %v, want [%d]", got, link)
	}
	if !(s.Solved().Perf.Ratio >= 1-1e-9) {
		t.Fatalf("post-failure PERF %v, want ≥ 1", s.Solved().Perf.Ratio)
	}

	evRec, err := s.Recover(link)
	if err != nil {
		t.Fatal(err)
	}
	if evRec.Kind != EventRecover || !evRec.Warm {
		t.Fatalf("recovery event %+v, want warm recover", evRec)
	}
	if s.Graph() != s.Base() {
		t.Fatal("recovery did not restore the base topology")
	}
	if len(s.FailedLinks()) != 0 {
		t.Fatal("failed set not empty after recovery")
	}
	// The recovered configuration must be in the same quality regime as
	// the initial one (warm restart from the base-epoch state).
	if s.Solved().Perf.Ratio > initial*1.05 {
		t.Fatalf("recovered PERF %v much worse than initial %v", s.Solved().Perf.Ratio, initial)
	}

	// Double-fail and double-recover are rejected.
	if _, err := s.Recover(link); err == nil {
		t.Fatal("recovering a healthy link must fail")
	}
	if _, err := s.Fail(link); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fail(link); err == nil {
		t.Fatal("failing a failed link must fail")
	}
}

func TestFailoverPlanSwap(t *testing.T) {
	cfg := testCfg()
	cfg.PrecomputeFailover = true
	s, _ := newNSFSession(t, cfg)
	link := s.Base().Links()[0]
	ev, err := s.Fail(link)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Warm {
		t.Fatal("planned failover should refine warm from the precomputed configuration")
	}
	if !(s.Solved().Perf.Ratio >= 1-1e-9) {
		t.Fatalf("post-failover PERF %v, want ≥ 1", s.Solved().Perf.Ratio)
	}
}

func TestPartitioningFailureRejected(t *testing.T) {
	// A 3-node line: failing either link partitions the network.
	g := graph.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddLink(a, b, 1, 1)
	g.AddLink(b, c, 1, 1)
	base := demand.Gravity(g, 1)
	s, err := NewSession(g, demand.MarginBox(base, 2), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	before := s.Solved().Perf.Ratio
	if _, err := s.Fail(g.Links()[0]); err == nil {
		t.Fatal("partitioning failure must be rejected")
	}
	if s.Solved().Perf.Ratio != before || len(s.FailedLinks()) != 0 {
		t.Fatal("rejected failure mutated the session")
	}
}

func TestLiesAndChurn(t *testing.T) {
	s, base := newNSFSession(t, testCfg())

	first, err := s.Lies(3)
	if err != nil {
		t.Fatal(err)
	}
	if first.Diff.Churn() != first.FakeNodes {
		t.Fatalf("first diff churn %d, want full injection %d", first.Diff.Churn(), first.FakeNodes)
	}

	// Unchanged configuration → empty diff.
	second, err := s.Lies(3)
	if err != nil {
		t.Fatal(err)
	}
	if second.Diff.Churn() != 0 {
		t.Fatalf("unchanged configuration produced churn %d", second.Diff.Churn())
	}

	// A demand drift should reconfigure some — but not all — LSAs.
	if _, err := s.UpdateBounds(demand.MarginBox(base.Clone().Scale(1.5), 3)); err != nil {
		t.Fatal(err)
	}
	third, err := s.Lies(3)
	if err != nil {
		t.Fatal(err)
	}
	if third.Diff.Churn() > third.FakeNodes+first.FakeNodes {
		t.Fatalf("churn %d exceeds flush-and-reload bound", third.Diff.Churn())
	}

	// The event log recorded the churn metric.
	var liesEvents int
	for _, e := range s.Events() {
		if e.Kind == EventLies {
			liesEvents++
		}
	}
	if liesEvents != 3 {
		t.Fatalf("%d lies events recorded, want 3", liesEvents)
	}
}

// TestSessionWorkerParity: a fixed mutation sequence must produce
// bit-identical results for any worker count (the repo's determinism
// contract extended to the online controller).
func TestSessionWorkerParity(t *testing.T) {
	if testing.Short() {
		t.Skip("parity sweep in -short mode")
	}
	run := func(workers int) (float64, *Session) {
		cfg := testCfg()
		cfg.OptIters = 80
		cfg.AdvIters = 2
		cfg.Workers = workers
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
		return s.Solved().Perf.Ratio, s
	}
	perf1, s1 := run(1)
	perf4, s4 := run(4)
	if perf1 != perf4 {
		t.Fatalf("PERF differs across worker counts: %v vs %v", perf1, perf4)
	}
	r1, r4 := s1.Routing(), s4.Routing()
	for dst := range r1.Phi {
		for e := range r1.Phi[dst] {
			if r1.Phi[dst][e] != r4.Phi[dst][e] {
				t.Fatalf("Phi[%d][%d] differs: %v vs %v", dst, e, r1.Phi[dst][e], r4.Phi[dst][e])
			}
		}
	}
}

func TestSubscribe(t *testing.T) {
	s, base := newNSFSession(t, testCfg())
	ch, cancel := s.Subscribe()
	defer cancel()
	if _, err := s.UpdateBounds(demand.MarginBox(base.Clone().Scale(1.1), 2)); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-ch:
		if e.Kind != EventUpdate {
			t.Fatalf("subscriber got %q, want update", e.Kind)
		}
	default:
		t.Fatal("subscriber received no event")
	}
	cancel() // double-cancel must be safe
}

func TestBadInputs(t *testing.T) {
	s, _ := newNSFSession(t, testCfg())
	if _, err := s.UpdateBounds(nil); err == nil {
		t.Fatal("nil bounds accepted")
	}
	if _, err := s.UpdateBounds(demand.MarginBox(demand.NewMatrix(3), 2)); err == nil {
		t.Fatal("mis-sized bounds accepted")
	}
	if _, err := s.Fail(-1); err == nil {
		t.Fatal("negative link accepted")
	}
	if _, err := s.Fail(10_000); err == nil {
		t.Fatal("out-of-range link accepted")
	}
}

// TestRejectedBoundsLeaveSessionIntact: a box no solve can use is refused by
// the input gate before any state is touched — an all-zero box used to be
// accepted and leave Perf = -Inf behind, after which the event log no longer
// marshalled.
func TestRejectedBoundsLeaveSessionIntact(t *testing.T) {
	s, base := newNSFSession(t, testCfg())
	if _, err := NewSession(s.Base(), demand.ObliviousBox(base.N, 0), testCfg()); err == nil {
		t.Fatal("NewSession accepted an all-zero box")
	}
	edited := func(edit func(b *demand.Box)) *demand.Box {
		b := demand.MarginBox(base, 2)
		edit(b)
		return b
	}
	bad := map[string]*demand.Box{
		"all-zero": demand.ObliviousBox(base.N, 0),
		"NaN":      edited(func(b *demand.Box) { b.Max.D[1] = math.NaN() }),
		"infinite": edited(func(b *demand.Box) { b.Max.D[1] = math.Inf(1) }),
		"negative": edited(func(b *demand.Box) { b.Min.D[1] = -1 }),
		"crossed":  edited(func(b *demand.Box) { b.Min.D[1] = 2 * b.Max.D[1] }),
	}
	perf, box, routing, events := s.Solved().Perf.Ratio, s.Bounds(), s.Routing(), len(s.Events())
	for name, b := range bad {
		var be *demand.BoxError
		if _, err := s.UpdateBounds(b); !errors.As(err, &be) {
			t.Errorf("%s box: err = %v, want a *demand.BoxError", name, err)
		}
		if s.Solved().Perf.Ratio != perf || s.Bounds() != box || s.Routing() != routing || len(s.Events()) != events {
			t.Fatalf("%s box: rejected update changed the session", name)
		}
	}
	if _, err := json.Marshal(s.Events()); err != nil {
		t.Fatalf("event log no longer marshals: %v", err)
	}
}

// TestUpdateBoundsStartsFromCrashBasis: no basis rides WithBox any more, so
// every exact OPTDAG normalization of an updated box must offer its own
// crash basis and have it accepted, with no numerical failure. The counters
// are process-global, so this test must not run in parallel with others
// that solve LPs.
func TestUpdateBoundsStartsFromCrashBasis(t *testing.T) {
	s, base := newNSFSession(t, testCfg())
	before := obs.Default.Snapshot()
	if _, err := s.UpdateBounds(demand.MarginBox(base.Clone().Scale(1.2), 2.1)); err != nil {
		t.Fatal(err)
	}
	st := obs.Default.Snapshot().Since(before)
	solves := movedBy(t, st, "coyote_lp_solves_total")
	if solves == 0 {
		t.Fatal("no exact LP solves during UpdateBounds; is NSF above ExactNodeLimit?")
	}
	attempts, hits := movedBy(t, st, "coyote_lp_warm_attempts_total"), movedBy(t, st, "coyote_lp_warm_hits_total")
	if attempts != solves || hits != solves {
		t.Fatalf("%v solves offered %v starting bases, %v accepted; want every solve crash-started",
			solves, attempts, hits)
	}
	if n := movedBy(t, st, "coyote_lp_dense_fallbacks_total"); n != 0 {
		t.Fatalf("%v numerical failures during a session update", n)
	}
}

// TestSessionEventsRunNoPhase1OrDual: every exact OPTDAG normalization a
// session event pays for starts from its matrix's crash basis, which is
// primal feasible, so UpdateBounds (rescaled and widened boxes), Fail and
// Recover run LP solves with no phase-1 pivots, whatever the previous epoch
// left behind (the simplex has no dual phase, so no dual pivots either). The
// counters are process-global, so this test must not run in parallel with
// others that solve LPs.
func TestSessionEventsRunNoPhase1OrDual(t *testing.T) {
	s, base := newNSFSession(t, testCfg())
	link := s.Base().Links()[0]
	events := []struct {
		name string
		run  func() error
	}{
		{"update ×1.2", func() error {
			_, err := s.UpdateBounds(demand.MarginBox(base.Clone().Scale(1.2), 2.1))
			return err
		}},
		{"update ×0.55", func() error {
			_, err := s.UpdateBounds(demand.MarginBox(base.Clone().Scale(0.55), 2))
			return err
		}},
		{"fail", func() error { _, err := s.Fail(link); return err }},
		{"update ×2.2", func() error {
			_, err := s.UpdateBounds(demand.MarginBox(base.Clone().Scale(2.2), 2))
			return err
		}},
		{"recover", func() error { _, err := s.Recover(link); return err }},
	}
	solves := 0.0
	for _, ev := range events {
		before := obs.Default.Snapshot()
		if err := ev.run(); err != nil {
			t.Fatalf("%s: %v", ev.name, err)
		}
		st := obs.Default.Snapshot().Since(before)
		n := movedBy(t, st, "coyote_lp_solves_total")
		if p1 := movedBy(t, st, "coyote_lp_phase1_iterations_total"); p1 != 0 {
			t.Errorf("%s: %v solves ran %v phase-1 pivots, want none", ev.name, n, p1)
		}
		if hits, fails := movedBy(t, st, "coyote_lp_warm_hits_total"), movedBy(t, st, "coyote_lp_dense_fallbacks_total"); hits != n || fails != 0 {
			t.Errorf("%s: %v of %v solves started from their crash basis, %v numerical failures",
				ev.name, hits, n, fails)
		}
		solves += n
		t.Logf("%s: %v solves, %v pivots", ev.name, n, movedBy(t, st, "coyote_lp_iterations_total"))
	}
	if solves == 0 {
		t.Fatal("no exact LP solves during the events; is NSF above ExactNodeLimit?")
	}
}

// movedBy reads key from a Snapshot.Since map and fails the test when the
// registry holds no such series, so a renamed or mistyped counter cannot
// read as 0.
func movedBy(tb testing.TB, moved map[string]float64, key string) float64 {
	tb.Helper()
	v, ok := moved[key]
	if !ok {
		tb.Fatalf("the registry has no series %s", key)
	}
	return v
}
