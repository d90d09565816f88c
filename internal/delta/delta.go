// Package delta is the incremental recomputation engine of the online TE
// controller: a long-lived Session over one topology whose configuration
// evolves as the network does, without paying the full adversarial-loop
// cost on every change.
//
// Three mechanisms make recomputation cheap (DESIGN.md §6):
//
//   - Warm-started optimization: each held configuration keeps the
//     gpopt.Optimizer it was solved with, log-ratio parameters and Adam
//     moments included, and the next solve on the same DAGs resumes it — a
//     demand-box update the live one, a recovery to the intact topology the
//     last intact one — instead of restarting from the near-ECMP
//     initialization.
//   - Critical-matrix carry-over: the worst-case demand matrices the
//     adversary accumulated (oblivious.Report.Critical) seed the next
//     recompute's finite scenario set, so adversarial corners that still
//     bind are not re-discovered round by round. OPTDAG normalizations are
//     shared across demand updates via oblivious.Evaluator.WithBox; a
//     fresh one needs no carried LP state, since the exact solver starts
//     it from its matrix's spanning-tree crash basis, which is primal
//     feasible (mcf.MinMLUModel.SolveMLU).
//   - Failover swap-then-refine: single-link failures swap in the
//     precomputed configuration (failover.PrecomputeGroups), re-seed the
//     optimizer from its ratios (gpopt.NewFromRouting), and refine with a
//     short warm run.
//
// Any other failure state builds its survivor DAGs with dagx.BuildAll, as
// a batch solve does: the session holds no shortest-path state of its own,
// so a rejected link event has only its failed-set entry to restore.
//
// Every Session mutation synthesizes nothing by itself; Lies produces the
// fake-node LSAs for the current configuration and — via fibbing.Diff —
// the minimal LSA add/remove/update set against the previously emitted
// lie set, making reconfiguration churn a first-class measured metric.
//
// The Session preserves the repo's determinism contract: for a fixed Seed
// and a fixed sequence of mutations, results are bit-identical for any
// Workers value.
package delta

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/failover"
	"github.com/coyote-te/coyote/internal/fibbing"
	"github.com/coyote-te/coyote/internal/gpopt"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/strategy"
)

// Session activity metrics (obs.Default, DESIGN.md §10). All updates happen
// under the session mutex on the mutation path — far from any inner loop —
// and nothing is ever read back, so the determinism contract holds.
var (
	mEvents = obs.Default.NewCounterVec("coyote_session_events_total",
		"Session state transitions recorded, by event kind.", "kind")
	mRecomputes = obs.Default.NewCounterVec("coyote_session_recomputes_total",
		"Adversarial-loop recomputes, by warm (reused optimizer state) vs cold.", "warm")
	mRecomputeSeconds = obs.Default.NewHistogram("coyote_session_recompute_seconds",
		"Wall-clock latency of one adversarial-loop recompute.",
		obs.ExpBuckets(0.001, 4, 10)) // 1ms .. ~260s
	mLSAChurn = obs.Default.NewCounter("coyote_session_lsa_churn_total",
		"LSAs added, removed, or updated across lie-diff emissions.")
	mDroppedEvents = obs.Default.NewCounter("coyote_session_dropped_events_total",
		"Events dropped because a subscriber's channel was full.")
)

// sessionLog records every state transition as a structured event —
// the narrative GET /logtail serves alongside the metrics.
var sessionLog = obs.Scope("session")

// maxCarriedCritical bounds the critical-matrix set carried across
// recomputes; the oldest matrices are dropped first (the adversary will
// re-discover them if they still bind). The bound also caps the per-step
// cost of the warm optimizer, whose gradient passes are linear in the
// scenario count.
const maxCarriedCritical = 32

// Config tunes a Session. The zero value uses the cold defaults of the
// batch pipeline.
type Config struct {
	// OptIters / AdvIters / Samples / Eps / Seed mirror the batch
	// pipeline's knobs (coyote.Options) and govern the initial cold
	// computation and any cold restarts. Warm recomputes (demand updates,
	// post-failover refinement) and the precomputed failover plan run at
	// max(1, OptIters/2) and max(2, AdvIters/3). When Samples is 0 the plan also
	// runs at Samples 4, failover's default, and its evaluators carry those
	// 4 samples into every refinement until recovery; intact solves and
	// cold survivor solves sample 8.
	OptIters int     // optimizer gradient steps, cold (default 400)
	AdvIters int     // adversarial rounds, cold (default 6)
	Samples  int     // adversary corner samples (default 8)
	Eps      float64 // FPTAS accuracy (default 0.1)
	Seed     int64
	// Workers bounds the worker pool of the optimizer's per-destination
	// sweeps and of the failover plans precomputed side by side (≤ 0 =
	// GOMAXPROCS); never changes results.
	Workers int
	// PrecomputeFailover, when true, precomputes a configuration for every
	// single-link failure at session start (§VI-A: "routing configurations
	// for failure scenarios can be precomputed"), so Fail swaps it in and
	// merely refines.
	PrecomputeFailover bool
	// Tracer, when non-nil, records one span tree per session transition
	// (session.init/update/fail/recover/lies) with the nested adversarial
	// loop, gpopt, and LP spans beneath it. Purely observational — results
	// are bit-identical with or without it.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.OptIters <= 0 {
		c.OptIters = 400
	}
	if c.AdvIters <= 0 {
		c.AdvIters = 6
	}
	return c
}

// params is the one conversion from a session Config to the solve's
// parameter set: cold effort, or — warm — the reduced effort of a recompute
// that starts from a previous solution.
func (c Config) params(warm bool) oblivious.Params {
	p := oblivious.Params{
		OptIters: c.OptIters,
		AdvIters: c.AdvIters,
		Samples:  c.Samples,
		Eps:      c.Eps,
		Seed:     c.Seed,
		Workers:  c.Workers,
	}
	if warm {
		p.OptIters, p.AdvIters = max(1, c.OptIters/2), max(2, c.AdvIters/3)
	}
	return p
}

// EventKind labels a Session state transition.
type EventKind string

const (
	EventInit    EventKind = "init"    // initial cold computation
	EventUpdate  EventKind = "update"  // demand-box update
	EventFail    EventKind = "fail"    // link failure
	EventRecover EventKind = "recover" // link recovery
	EventLies    EventKind = "lies"    // lie synthesis + diff emission
)

// Event records one Session transition — the controller's stats stream.
type Event struct {
	Seq    int       `json:"seq"`
	Kind   EventKind `json:"kind"`
	Detail string    `json:"detail,omitempty"`
	// Warm reports whether the recompute reused previous optimizer state
	// (as opposed to a cold restart).
	Warm bool `json:"warm"`
	// Perf / ECMPPerf are the post-transition worst-case normalized
	// utilizations (unset for lies events).
	Perf     float64 `json:"perf,omitempty"`
	ECMPPerf float64 `json:"ecmp_perf,omitempty"`
	// OuterIters and Scenarios describe the adversarial loop's effort.
	OuterIters int `json:"outer_iters,omitempty"`
	Scenarios  int `json:"scenarios,omitempty"`
	// Churn counts LSAs touched (lies events): adds + removes + updates.
	Churn int `json:"churn"`
	// FakeNodes is the total lie count after a lies event.
	FakeNodes int `json:"fake_nodes,omitempty"`
	// Elapsed is the wall-clock cost of the transition (not part of the
	// determinism contract).
	Elapsed time.Duration `json:"elapsed_ns"`
}

// LieResult is the outcome of Session.Lies: the verified synthesis for the
// current configuration plus the minimal diff against the previously
// emitted lie set.
type LieResult struct {
	// Quantized is the routing the lies actually realize.
	Quantized *pdrouting.Routing
	// VirtualLinks counts next-hop replicas beyond the first.
	VirtualLinks int
	// FakeNodes counts fake-node LSAs in the full synthesis.
	FakeNodes int
	// LiedDestinations counts destinations that needed lies.
	LiedDestinations int
	// Synthesis is the verified full LSDB augmentation.
	Synthesis *fibbing.Synthesis
	// Diff is the minimal LSA set transforming the previously emitted
	// synthesis into this one (a full injection on first call), lies
	// matched on their identity; replayed onto the previous lie set it
	// gives this one exactly.
	Diff *fibbing.LSADiff
}

// Session is a live controller state over one topology. All methods are
// safe for concurrent use; mutations are serialized.
type Session struct {
	mu  sync.Mutex
	cfg Config

	base   *graph.Graph          // the intact topology
	failed map[graph.EdgeID]bool // failed links, by base representative edge ID

	// cur is the live configuration: everything that is replaced as a unit
	// when the box, the failed-link set, or both change. Its evaluator names
	// the current topology (base or a survivor), DAGs and uncertainty box.
	cur *strategy.Solved

	// normal is the most recent configuration on the intact topology;
	// recovering to it rebinds it to the live box and resumes its optimizer,
	// so the OPTDAG/max-flow caches and the θ/Adam state paid for before the
	// failure are kept. Nothing else hands that optimizer to a solve: under
	// failure the live configuration is a survivor's, with its own.
	normal *strategy.Solved

	// plan holds precomputed single-link failover configurations keyed by
	// the failed base link.
	plan map[graph.EdgeID]*failover.GroupScenario

	prevSyn *fibbing.Synthesis // last emitted lie set, diff baseline
	events  []Event
	subs    map[int]chan Event // Subscribe registrations by id
	nextSub int
	dropped uint64 // lifetime count of events dropped on full subscriber channels
}

// NewSession validates the topology and bounds, runs the initial cold
// computation, and (optionally) precomputes the single-link failover plan.
func NewSession(g *graph.Graph, box *demand.Box, cfg Config) (*Session, error) {
	cfg = cfg.withDefaults()
	if err := strategy.Check(g, box, cfg.Eps); err != nil {
		return nil, err
	}
	s := &Session{
		cfg:    cfg,
		base:   g,
		failed: make(map[graph.EdgeID]bool),
		subs:   make(map[int]chan Event),
	}
	ctx, span := obs.StartSpan(s.traceCtx(), "session.init")
	defer span.End()
	start := time.Now()
	dags := dagx.BuildAll(g, dagx.Augmented)
	next, err := s.solve(ctx, oblivious.NewEvaluator(g, dags, box, cfg.params(false).EvalConfig()), nil)
	if err != nil {
		return nil, err
	}
	s.commit(next, Event{Kind: EventInit}, start)

	if cfg.PrecomputeFailover {
		planCtx, planSpan := obs.StartSpan(ctx, "session.failover_plan")
		scens, err := failover.PrecomputeGroups(planCtx, g, box, scen.SingleLinkFailures(g), cfg.params(true))
		if err != nil {
			planSpan.End()
			return nil, err
		}
		s.plan = make(map[graph.EdgeID]*failover.GroupScenario, len(scens))
		for i := range scens {
			s.plan[scens[i].Set.Links[0]] = &scens[i]
		}
		planSpan.Attr("links", len(scens)).End()
	}
	return s, nil
}

// traceCtx returns a background context carrying the session's tracer, if
// it has one.
func (s *Session) traceCtx() context.Context {
	return obs.WithTracer(context.Background(), s.cfg.Tracer)
}

// solve computes the next configuration over ev without installing it, so a
// failed solve leaves the session's configurations as they were (though the
// warm optimizer it was given may have advanced). A held configuration is
// re-solved by passing its evaluator (rebound with WithBox when the box
// moved), which keeps its caches. A non-nil warm optimizer selects the
// reduced warm effort; the live configuration's critical matrices carry over
// either way.
func (s *Session) solve(ctx context.Context, ev *oblivious.Evaluator, warm *gpopt.Optimizer) (*strategy.Solved, error) {
	recomputeStart := time.Now()
	opts := s.cfg.params(warm != nil).Options()
	opts.Warm = warm
	if s.cur != nil {
		opts.Carry = projectOntoBox(carried(s.cur.Critical), ev.Box)
	}
	next, err := strategy.Solve(ctx, ev, opts)
	if err != nil {
		return nil, err
	}
	mRecomputes.With(strconv.FormatBool(warm != nil)).Inc()
	mRecomputeSeconds.ObserveSince(recomputeStart)
	return next, nil
}

// carried is the tail of a solve's critical matrices the next solve starts
// from (at most maxCarriedCritical, oldest dropped first).
func carried(critical []*demand.Matrix) []*demand.Matrix {
	if len(critical) > maxCarriedCritical {
		return critical[len(critical)-maxCarriedCritical:]
	}
	return critical
}

// commit installs a solved configuration and records the transition (e
// carries kind, detail and warm flag; the numbers are the configuration's).
// One on the intact topology also becomes the recovery target, so recovering
// the last failed link resumes its evaluator and optimizer.
func (s *Session) commit(next *strategy.Solved, e Event, start time.Time) Event {
	s.cur = next
	if next.Ev.G == s.base {
		s.normal = next
	}
	e.Perf, e.ECMPPerf = next.Perf.Ratio, next.ECMPPerf
	e.OuterIters, e.Scenarios = next.OuterIters, len(carried(next.Critical))
	e.Elapsed = time.Since(start)
	return s.record(e)
}

// projectOntoBox clamps each carried critical matrix onto the current
// uncertainty box, entry by entry. Critical matrices discovered under an
// earlier box are typically its corners; after a demand drift they may lie
// outside the new box, and seeding the optimizer with infeasible demands
// would make it hedge against traffic that can no longer occur. The
// projection of an old adversarial corner is usually still adversarial —
// exactly the "corners that still bind" the carry-over exists for.
// Matrices already inside the box pass through unchanged (no copy).
func projectOntoBox(critical []*demand.Matrix, box *demand.Box) []*demand.Matrix {
	out := make([]*demand.Matrix, 0, len(critical))
	for _, D := range critical {
		if D.N != box.Min.N {
			continue
		}
		var proj *demand.Matrix
		for i, v := range D.D {
			lo, hi := box.Min.D[i], box.Max.D[i]
			if v >= lo && v <= hi {
				continue
			}
			if proj == nil {
				proj = D.Clone()
			}
			if v < lo {
				proj.D[i] = lo
			} else {
				proj.D[i] = hi
			}
		}
		if proj != nil {
			out = append(out, proj)
		} else {
			out = append(out, D)
		}
	}
	return out
}

// record appends an event (stamping its sequence number) and notifies
// subscribers without blocking. A subscriber whose channel is full misses
// the event rather than stalling the controller — but the loss is not
// silent: it is counted in the session lifetime total (State, surfaced on
// GET /state) and in the coyote_session_dropped_events_total metric.
func (s *Session) record(e Event) Event {
	e.Seq = len(s.events)
	s.events = append(s.events, e)
	mEvents.With(string(e.Kind)).Inc()
	sessionLog.Info("session transition",
		"seq", e.Seq, "kind", string(e.Kind), "detail", e.Detail, "warm", e.Warm,
		"perf", e.Perf, "churn", e.Churn, "elapsed", e.Elapsed)
	if e.Kind == EventLies {
		mLSAChurn.Add(uint64(e.Churn))
	}
	for _, ch := range s.subs {
		select {
		case ch <- e:
		default: // slow subscriber: drop rather than stall the controller
			s.dropped++
			mDroppedEvents.Inc()
		}
	}
	return e
}

// UpdateBounds replaces the demand uncertainty set and recomputes the
// configuration with a warm start: the optimizer's log-ratio/Adam state
// and the accumulated critical matrices carry over, and the new evaluator
// shares the previous OPTDAG cache (the normalizations depend only on the
// topology and DAGs, not the box).
func (s *Session) UpdateBounds(box *demand.Box) (Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := box.Check(s.base.NumNodes()); err != nil {
		return Event{}, fmt.Errorf("delta: %w", err)
	}
	ctx, span := obs.StartSpan(s.traceCtx(), "session.update")
	defer span.End()
	start := time.Now()
	next, err := s.solve(ctx, s.cur.Ev.WithBox(box), s.cur.Warm)
	if err != nil {
		return Event{}, err
	}
	return s.commit(next, Event{Kind: EventUpdate, Warm: true}, start), nil
}

// representative normalizes a directed edge ID of the base topology to its
// physical-link representative (the lower-numbered direction).
func (s *Session) representative(id graph.EdgeID) (graph.EdgeID, error) {
	if int(id) < 0 || int(id) >= s.base.NumEdges() {
		return 0, fmt.Errorf("delta: unknown link %d", id)
	}
	e := s.base.Edge(id)
	if e.Reverse >= 0 && e.Reverse < id {
		return e.Reverse, nil
	}
	return id, nil
}

// Fail marks a base-topology link as failed and recomputes on the
// surviving topology. With a precomputed failover plan the planned
// configuration is swapped in and refined warm; otherwise the survivor is
// re-optimized cold (with carried critical matrices). Failing a link whose
// removal partitions the network is rejected and leaves the session
// unchanged.
func (s *Session) Fail(link graph.EdgeID) (Event, error) { return s.transition(EventFail, link) }

// Recover clears a failed link and recomputes. Recovering back to the
// intact topology resumes the last intact configuration's optimizer.
func (s *Session) Recover(link graph.EdgeID) (Event, error) { return s.transition(EventRecover, link) }

// transition applies one link event (EventFail or EventRecover): it flips
// the link's entry in the failed set, recomputes, and flips it back if the
// recompute is rejected, so a failed event leaves the session unchanged.
func (s *Session) transition(kind EventKind, link graph.EdgeID) (Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, err := s.representative(link)
	if err != nil {
		return Event{}, err
	}
	fail := kind == EventFail
	switch {
	case fail && s.failed[rep]:
		return Event{}, fmt.Errorf("delta: link %d already failed", rep)
	case !fail && !s.failed[rep]:
		return Event{}, fmt.Errorf("delta: link %d is not failed", rep)
	}
	s.setFailed(rep, fail)
	ev, err := s.resolve(kind, rep)
	if err != nil {
		s.setFailed(rep, !fail)
		return Event{}, err
	}
	return ev, nil
}

// setFailed adds a link to the failed set, or removes it.
func (s *Session) setFailed(link graph.EdgeID, failed bool) {
	if failed {
		s.failed[link] = true
	} else {
		delete(s.failed, link)
	}
}

// failedList returns the failed links in deterministic (ascending) order.
func (s *Session) failedList() []graph.EdgeID {
	out := make([]graph.EdgeID, 0, len(s.failed))
	for id := range s.failed {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// resolve recomputes after the failed-link set changed. The link argument is
// the edge that changed state. Only the choice of evaluator — a held
// configuration's, rebound to the live box, or a fresh one — and of the warm
// optimizer depends on where the new configuration comes from; the solve and
// the bookkeeping after it are shared.
func (s *Session) resolve(kind EventKind, link graph.EdgeID) (Event, error) {
	ctx, span := obs.StartSpan(s.traceCtx(), "session."+string(kind))
	defer span.End()
	start := time.Now()
	e := s.base.Edge(link)
	detail := fmt.Sprintf("%s–%s", s.base.Name(e.From), s.base.Name(e.To))
	span.Attr("link", detail)

	survivor := s.base
	if len(s.failed) > 0 {
		survivor = s.base.WithoutLinks(s.failedList())
		if !survivor.Connected() {
			// The caller rolls back the failed-set entry.
			return Event{}, fmt.Errorf("delta: failing %s would partition the network", detail)
		}
	}

	box := s.cur.Ev.Box
	var ev *oblivious.Evaluator
	var warm *gpopt.Optimizer // never the live optimizer: it indexes the old topology's edge IDs
	sc := s.plan[link]
	switch {
	case len(s.failed) == 0:
		// Back to the intact topology: the last configuration there re-solved
		// on the live box with its own optimizer, as UpdateBounds does with the
		// live one.
		ev, warm = s.normal.Ev.WithBox(box), s.normal.Warm
	case kind == EventFail && len(s.failed) == 1 && sc != nil && !sc.Disconnected:
		// Failover swap: a precomputed single-link scenario provides the
		// post-failure configuration to refine from — its routing, the DAGs it
		// was optimized over and the evaluator whose OPTDAG/max-flow caches
		// were filled while precomputing it. Reusing all three makes the
		// reaction warm end to end — no DAG rebuild and no exact-LP
		// re-normalization on the critical path. The scenario's survivor
		// graph is the deterministic WithoutLinks reconstruction, so edge IDs
		// align with this configuration's.
		ev = sc.Solved.Ev.WithBox(box)
		warm = gpopt.NewFromRouting(ev.G, ev.DAGs, gpopt.Config{}, sc.Solved.Routing)
	default:
		// Any other failure state — a failure without a plan, a second
		// failure, a recovery that leaves links failed: the survivor's DAGs
		// are built as every solve builds them.
		dags := dagx.BuildAll(survivor, dagx.Augmented)
		ev = oblivious.NewEvaluator(survivor, dags, box, s.cfg.params(false).EvalConfig())
	}
	next, err := s.solve(ctx, ev, warm)
	if err != nil {
		return Event{}, err // the caller restores the failed set
	}
	return s.commit(next, Event{Kind: kind, Detail: detail, Warm: warm != nil}, start), nil
}

// Lies synthesizes the fake-node LSAs realizing the current configuration
// (quantized to extraPerInterface virtual next-hops per interface),
// verifies that SPF over them reproduces the quantized forwarding, and
// computes the minimal LSA diff against the previously emitted lie set.
// The diff is proved by replay (fibbing.VerifyDiff): applied to the
// previous lie set it must give the new one exactly, costs included, so it
// realizes the forwarding the new lies were verified against. The new
// synthesis becomes the next diff baseline.
func (s *Session) Lies(extraPerInterface int) (*LieResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ctx, span := obs.StartSpan(s.traceCtx(), "session.lies")
	defer span.End()
	start := time.Now()
	g := s.cur.Ev.G
	q, syn, err := fibbing.Realize(ctx, g, s.cur.Routing, extraPerInterface)
	if err != nil {
		return nil, err
	}
	diff := fibbing.Diff(s.prevSyn, syn)
	if err := fibbing.VerifyDiff(s.prevSyn, syn, diff); err != nil {
		return nil, fmt.Errorf("delta: diff verification failed: %w", err)
	}
	span.Attr("fake_nodes", syn.FakeNodes).Attr("churn", diff.Churn())
	s.prevSyn = syn
	s.record(Event{
		Kind:      EventLies,
		Churn:     diff.Churn(),
		FakeNodes: syn.FakeNodes,
		Elapsed:   time.Since(start),
	})
	return &LieResult{
		Quantized:        q.Routing,
		VirtualLinks:     q.VirtualLinks,
		FakeNodes:        syn.FakeNodes,
		LiedDestinations: len(syn.LiedDestinations),
		Synthesis:        syn,
		Diff:             diff,
	}, nil
}

// Solved returns the live configuration: one consistent snapshot of the
// current (possibly degraded) topology, uncertainty set, routing and report.
// It must be treated as read-only.
func (s *Session) Solved() *strategy.Solved {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// Routing returns the current per-destination routing (read-only).
func (s *Session) Routing() *pdrouting.Routing { return s.Solved().Routing }

// Graph returns the current (possibly degraded) topology.
func (s *Session) Graph() *graph.Graph { return s.Solved().Ev.G }

// Base returns the intact topology the session was created with.
func (s *Session) Base() *graph.Graph { return s.base }

// Bounds returns the current uncertainty set.
func (s *Session) Bounds() *demand.Box { return s.Solved().Ev.Box }

// FailedLinks lists the currently failed links (base representative edge
// IDs, ascending).
func (s *Session) FailedLinks() []graph.EdgeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failedList()
}

// Events returns a copy of the full event log.
func (s *Session) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Subscribe registers a listener for future events. The returned cancel
// function must be called to release the subscription. Events are
// delivered best-effort: a subscriber that falls behind misses events
// rather than stalling the controller. Missed deliveries are counted in
// the session total reported by State, so the loss is observable instead
// of silent.
func (s *Session) Subscribe() (<-chan Event, func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextSub
	s.nextSub++
	ch := make(chan Event, 16)
	s.subs[id] = ch
	return ch, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.subs[id]; ok {
			delete(s.subs, id)
			close(ch)
		}
	}
}

// State returns, under one lock, the live configuration, the failed links
// (base representative edge IDs, ascending), the length of the event log and
// the number of events not delivered to some subscriber because its channel
// was full (summed over the session's lifetime, cancelled subscribers
// included). The four always describe the same committed transition.
func (s *Session) State() (cur *strategy.Solved, failed []graph.EdgeID, events int, dropped uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur, s.failedList(), len(s.events), s.dropped
}
