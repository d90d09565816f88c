// Package delta is the incremental recomputation engine of the online TE
// controller: a long-lived Session over one topology whose configuration
// evolves as the network does, without paying the full adversarial-loop
// cost on every change.
//
// Three mechanisms make recomputation cheap (DESIGN.md §6):
//
//   - Warm-started optimization: the gpopt log-ratio parameters and Adam
//     moments survive across recomputes (gpopt.State), so a demand-box
//     update refines the previous solution instead of restarting from the
//     near-ECMP initialization.
//   - Critical-matrix carry-over: the worst-case demand matrices the
//     adversary accumulated (oblivious.Report.Critical) seed the next
//     recompute's finite scenario set, so adversarial corners that still
//     bind are not re-discovered round by round. OPTDAG normalizations are
//     shared across demand updates via oblivious.Evaluator.WithBox — and
//     so is the exact solver's warm-start state: the evaluator cache
//     carries the last optimal simplex basis (lp.Basis), so the sparse
//     LP behind every fresh normalization after UpdateBounds or Recover
//     resumes from the previous epoch's vertex instead of re-running
//     phase 1, exactly as the gpopt log-ratio/Adam state carries through
//     Options.Warm.
//   - Failover swap-then-refine: single-link failures swap in the
//     precomputed configuration (failover.PrecomputeGroups), re-seed the
//     optimizer from its ratios (gpopt.NewFromRouting), and refine with a
//     short warm run.
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
	"github.com/coyote-te/coyote/internal/mcf"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/spf"
	"github.com/coyote-te/coyote/internal/wcmp"
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
	mSPFAffected = obs.Default.NewHistogram("coyote_spf_affected_nodes",
		"Nodes touched per dynamic-SPF repair (one observation per destination tree per topology event).",
		obs.ExpBuckets(1, 2, 12)) // 1 .. 2048 nodes
)

// sessionLog records every state transition as a structured event —
// the narrative the dashboard's event tail renders alongside the metrics.
var sessionLog = obs.Scope("session")

// maxCarriedCritical bounds the critical-matrix set carried across
// recomputes; the oldest matrices are dropped first (the adversary will
// re-discover them if they still bind). The bound also caps the per-step
// cost of the warm optimizer, whose gradient passes are linear in the
// scenario count.
const maxCarriedCritical = 32

// Config tunes a Session. The zero value uses the cold defaults of the
// batch pipeline and derives reduced warm settings from them.
type Config struct {
	// OptIters / AdvIters / Samples / Eps / Seed mirror the batch
	// pipeline's knobs (coyote.Options) and govern the initial cold
	// computation and any cold restarts.
	OptIters int     // optimizer gradient steps, cold (default 400)
	AdvIters int     // adversarial rounds, cold (default 6)
	Samples  int     // adversary corner samples (default 8)
	Eps      float64 // FPTAS accuracy (default 0.1)
	Seed     int64
	// WarmOptIters / WarmAdvIters govern warm recomputes (demand updates,
	// post-failover refinement). Defaults: OptIters/2 and max(2,
	// AdvIters/3).
	WarmOptIters int
	WarmAdvIters int
	// Workers bounds the evaluation engine's worker pool (≤ 0 =
	// GOMAXPROCS); never changes results.
	Workers int
	// PrecomputeFailover, when true, precomputes a configuration for every
	// single-link failure at session start (§VI-A: "routing configurations
	// for failure scenarios can be precomputed"), so Fail swaps it in and
	// merely refines.
	PrecomputeFailover bool
	// coldSPF disables the session's incremental shortest-path maintenance
	// and rebuilds every epoch's DAGs with cold per-destination Dijkstras
	// instead. Results are bit-identical either way (the parity tests pin
	// this); the toggle exists for those tests and as a kill switch.
	coldSPF bool
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
	if c.WarmOptIters <= 0 {
		c.WarmOptIters = c.OptIters / 2
	}
	if c.WarmAdvIters <= 0 {
		c.WarmAdvIters = c.AdvIters / 3
		if c.WarmAdvIters < 2 {
			c.WarmAdvIters = 2
		}
	}
	return c
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
	// synthesis into this one (a full injection on first call), verified
	// against the current topology.
	Diff *fibbing.LSADiff
}

// Session is a live controller state over one topology. All methods are
// safe for concurrent use; mutations are serialized.
type Session struct {
	mu  sync.Mutex
	cfg Config

	base     *graph.Graph // the intact topology
	baseDags []*dagx.DAG
	box      *demand.Box
	failed   map[graph.EdgeID]bool // failed links, by base representative edge ID

	// incs holds one dynamic SPF structure per destination over the base
	// topology, kept in lockstep with the failed-link set. Fail/Recover
	// repair only the affected vertices (near-O(affected) instead of n
	// Dijkstras) and every epoch's augmented DAGs are rebuilt from the
	// repaired distance fields — bit-identical to the cold construction,
	// since spf.Incremental maintains the exact Dijkstra fixpoint. nil when
	// Config.coldSPF is set.
	incs []*spf.Incremental

	// Current epoch (base or survivor topology).
	cur       *graph.Graph
	dags      []*dagx.DAG
	ev        *oblivious.Evaluator
	opt       *gpopt.Optimizer
	critical  []*demand.Matrix
	routing   *pdrouting.Routing
	perf      float64
	ecmpPerf  float64
	lastOuter int // outer iterations of the most recent reoptimize

	// normalState snapshots the optimizer parameters of the latest
	// base-topology recompute, so a recovery back to the intact network
	// warm-starts from them (gpopt's exported state handoff).
	normalState *gpopt.State
	// baseEv is the most recent base-epoch evaluator; recovering to the
	// intact topology derives the new evaluator from it (WithBox), so the
	// OPTDAG/max-flow caches paid for before the failure are kept.
	baseEv *oblivious.Evaluator

	// plan holds precomputed single-link failover configurations keyed by
	// the failed base link.
	plan map[graph.EdgeID]*failover.GroupScenario

	prevSyn *fibbing.Synthesis // last emitted lie set, diff baseline
	events  []Event
	subs    map[int]*subscriber
	nextSub int
	dropped uint64 // lifetime count of events dropped on full subscriber channels
}

// subscriber is one Subscribe registration: its delivery channel plus the
// count of events it missed because the channel was full when the
// controller tried to notify it.
type subscriber struct {
	ch      chan Event
	dropped uint64
}

// NewSession validates the topology and bounds, runs the initial cold
// computation, and (optionally) precomputes the single-link failover plan.
func NewSession(g *graph.Graph, box *demand.Box, cfg Config) (*Session, error) {
	cfg = cfg.withDefaults()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if !g.Connected() {
		return nil, fmt.Errorf("delta: topology is not strongly connected")
	}
	if box == nil {
		return nil, fmt.Errorf("delta: nil uncertainty bounds")
	}
	if box.Min.N != g.NumNodes() {
		return nil, fmt.Errorf("delta: bounds are %d×%d but topology has %d nodes",
			box.Min.N, box.Min.N, g.NumNodes())
	}
	if err := mcf.CheckEps(cfg.Eps); err != nil {
		return nil, fmt.Errorf("delta: Config.Eps: %w", err)
	}
	s := &Session{
		cfg:    cfg,
		base:   g,
		box:    box,
		failed: make(map[graph.EdgeID]bool),
		subs:   make(map[int]*subscriber),
	}
	ctx, span := obs.StartSpan(s.traceCtx(), "session.init")
	defer span.End()
	start := time.Now()
	if cfg.coldSPF {
		s.baseDags = dagx.BuildAll(g, dagx.Augmented)
	} else {
		// One cold Dijkstra per destination seeds the dynamic SPF
		// structures, and the base DAGs are derived from the same distance
		// fields — the session never pays for a destination's shortest
		// paths twice.
		n := g.NumNodes()
		s.incs = make([]*spf.Incremental, n)
		s.baseDags = make([]*dagx.DAG, n)
		for t := 0; t < n; t++ {
			s.incs[t] = spf.NewIncremental(g, graph.NodeID(t))
			s.baseDags[t] = dagx.AugmentedFromTree(g, s.incs[t].TreeCopy())
		}
	}
	s.cur = g
	s.dags = s.baseDags
	s.ev = oblivious.NewEvaluator(g, s.dags, box, s.evalConfig())
	s.baseEv = s.ev
	s.reoptimize(ctx, false, nil)
	s.record(Event{
		Kind:       EventInit,
		Perf:       s.perf,
		ECMPPerf:   s.ecmpPerf,
		OuterIters: s.lastOuter,
		Scenarios:  len(s.critical),
		Elapsed:    time.Since(start),
	})

	if cfg.PrecomputeFailover {
		_, planSpan := obs.StartSpan(ctx, "session.failover_plan")
		links := g.Links()
		groups := make([][]graph.EdgeID, len(links))
		for i, id := range links {
			groups[i] = []graph.EdgeID{id}
		}
		scens, err := failover.PrecomputeGroups(g, box, groups, failover.Config{
			OptIters: cfg.WarmOptIters,
			AdvIters: cfg.WarmAdvIters,
			Samples:  cfg.Samples,
			Eps:      cfg.Eps,
			Seed:     cfg.Seed,
			Workers:  cfg.Workers,
		})
		if err != nil {
			planSpan.End()
			return nil, err
		}
		s.plan = make(map[graph.EdgeID]*failover.GroupScenario, len(links))
		for i := range scens {
			s.plan[links[i]] = &scens[i]
		}
		planSpan.Attr("links", len(links)).End()
	}
	return s, nil
}

// traceCtx returns a background context carrying the session's tracer, or
// a plain background context when tracing is off.
func (s *Session) traceCtx() context.Context {
	if s.cfg.Tracer == nil {
		return context.Background()
	}
	return obs.WithTracer(context.Background(), s.cfg.Tracer)
}

func (s *Session) evalConfig() oblivious.EvalConfig {
	return oblivious.EvalConfig{
		Eps:     s.cfg.Eps,
		Samples: s.cfg.Samples,
		Seed:    s.cfg.Seed,
		Workers: s.cfg.Workers,
	}
}

// reoptimize runs the adversarial loop on the current epoch. warm selects
// the reduced warm effort; seed, when non-nil, replaces the optimizer (the
// failover swap path). It updates routing/perf/critical/opt and, on the
// base topology, snapshots normalState.
func (s *Session) reoptimize(ctx context.Context, warm bool, seed *gpopt.Optimizer) {
	recomputeStart := time.Now()
	iters, adv := s.cfg.OptIters, s.cfg.AdvIters
	if warm {
		iters, adv = s.cfg.WarmOptIters, s.cfg.WarmAdvIters
	}
	opts := oblivious.Options{
		Optimizer: gpopt.Config{Iters: iters},
		AdvIters:  adv,
		Workers:   s.cfg.Workers,
		Carry:     projectOntoBox(s.critical, s.box),
		Ctx:       ctx,
	}
	if seed != nil {
		opts.Warm = seed
	} else if s.opt != nil {
		opts.Warm = s.opt
	}
	routing, rep := oblivious.OptimizeWithEvaluator(s.cur, s.dags, s.ev, opts)
	s.routing = routing
	s.perf = rep.Perf.Ratio
	s.ecmpPerf = rep.ECMPPerf
	s.opt = rep.Warm
	s.critical = rep.Critical
	if len(s.critical) > maxCarriedCritical {
		s.critical = append([]*demand.Matrix(nil), s.critical[len(s.critical)-maxCarriedCritical:]...)
	}
	s.lastOuter = rep.OuterIters
	if s.cur == s.base {
		s.normalState = s.opt.ExportState()
	}
	mRecomputes.With(strconv.FormatBool(warm)).Inc()
	mRecomputeSeconds.ObserveSince(recomputeStart)
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
// the event rather than stalling the controller — but the loss is no longer
// silent: it is counted per subscriber, in the session lifetime total
// (Dropped, surfaced on GET /state), and in the
// coyote_session_dropped_events_total metric.
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
	for _, sub := range s.subs {
		select {
		case sub.ch <- e:
		default: // slow subscriber: drop rather than stall the controller
			sub.dropped++
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
	if box == nil {
		return Event{}, fmt.Errorf("delta: nil uncertainty bounds")
	}
	if box.Min.N != s.base.NumNodes() {
		return Event{}, fmt.Errorf("delta: bounds are %d×%d but topology has %d nodes",
			box.Min.N, box.Min.N, s.base.NumNodes())
	}
	ctx, span := obs.StartSpan(s.traceCtx(), "session.update")
	defer span.End()
	start := time.Now()
	s.box = box
	s.ev = s.ev.WithBox(box)
	if s.cur == s.base {
		s.baseEv = s.ev
	}
	s.reoptimize(ctx, true, nil)
	return s.record(Event{
		Kind:       EventUpdate,
		Warm:       true,
		Perf:       s.perf,
		ECMPPerf:   s.ecmpPerf,
		OuterIters: s.lastOuter,
		Scenarios:  len(s.critical),
		Elapsed:    time.Since(start),
	}), nil
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
func (s *Session) Fail(link graph.EdgeID) (Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, err := s.representative(link)
	if err != nil {
		return Event{}, err
	}
	if s.failed[rep] {
		return Event{}, fmt.Errorf("delta: link %d already failed", rep)
	}
	s.failed[rep] = true
	ev, err := s.rebuildEpoch(EventFail, rep)
	if err != nil {
		delete(s.failed, rep)
		return Event{}, err
	}
	return ev, nil
}

// Recover clears a failed link and recomputes. Recovering back to the
// intact topology warm-starts from the last base-epoch optimizer state.
func (s *Session) Recover(link graph.EdgeID) (Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, err := s.representative(link)
	if err != nil {
		return Event{}, err
	}
	if !s.failed[rep] {
		return Event{}, fmt.Errorf("delta: link %d is not failed", rep)
	}
	delete(s.failed, rep)
	ev, err := s.rebuildEpoch(EventRecover, rep)
	if err != nil {
		s.failed[rep] = true
		return Event{}, err
	}
	return ev, nil
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

// rebuildEpoch recomputes after the failed-link set changed. The link
// argument is the edge that changed state (for the event detail).
func (s *Session) rebuildEpoch(kind EventKind, link graph.EdgeID) (Event, error) {
	ctx, span := obs.StartSpan(s.traceCtx(), "session."+string(kind))
	defer span.End()
	start := time.Now()
	e := s.base.Edge(link)
	detail := fmt.Sprintf("%s–%s", s.base.Name(e.From), s.base.Name(e.To))
	span.Attr("link", detail)

	if len(s.failed) == 0 {
		// Back to the intact topology: reuse the base DAGs and warm-start
		// from the snapshot of the last base-epoch parameters. The dynamic
		// SPF structures still repair (cheaply) so they track the topology.
		if s.incs != nil {
			for _, inc := range s.incs {
				mSPFAffected.Observe(float64(inc.RecoverLink(link)))
			}
		}
		s.cur = s.base
		s.dags = s.baseDags
		// Derive the evaluator from the last base-epoch one: the OPTDAG
		// and max-flow caches depend only on (graph, DAGs), so everything
		// paid for before the failure is still valid.
		s.ev = s.baseEv.WithBox(s.box)
		s.baseEv = s.ev
		var seed *gpopt.Optimizer
		if s.normalState != nil {
			seed = gpopt.New(s.base, s.dags, gpopt.Config{Iters: s.cfg.WarmOptIters})
			if err := seed.ImportState(s.normalState); err != nil {
				seed = nil
			}
		}
		s.opt = nil // epoch changed: the failure-epoch optimizer cannot carry
		s.reoptimize(ctx, seed != nil, seed)
		return s.record(Event{
			Kind: kind, Detail: detail, Warm: seed != nil,
			Perf: s.perf, ECMPPerf: s.ecmpPerf,
			OuterIters: s.lastOuter, Scenarios: len(s.critical),
			Elapsed: time.Since(start),
		}), nil
	}

	survivor := s.base.WithoutLinks(s.failedList())
	if !survivor.Connected() {
		// Session state (including the dynamic SPF structures, untouched so
		// far) is unchanged; the caller rolls back the failed-set entry.
		return Event{}, fmt.Errorf("delta: failing %s would partition the network", detail)
	}
	// Keep the dynamic SPF fields in lockstep with the failed set no
	// matter where this epoch's DAGs come from — each event is an
	// O(affected) repair, and later multi-failure epochs depend on the
	// fields being current.
	if s.incs != nil {
		for _, inc := range s.incs {
			var touched int
			if kind == EventFail {
				touched = inc.FailLink(link)
			} else {
				touched = inc.RecoverLink(link)
			}
			mSPFAffected.Observe(float64(touched))
		}
	}

	// Failover swap: a precomputed single-link scenario provides the
	// post-failure configuration to refine from, together with the DAGs it
	// was optimized over and the evaluator whose OPTDAG/max-flow caches
	// were filled while precomputing it. Reusing all three makes the
	// reaction warm end to end — no Dijkstra, no DAG rebuild, and no
	// exact-LP re-normalization on the critical path. The scenario's
	// survivor graph is the deterministic WithoutLinks reconstruction, so
	// edge IDs align with this epoch's.
	if kind == EventFail && len(s.failed) == 1 {
		if sc, ok := s.plan[link]; ok && !sc.Disconnected && sc.Routing != nil && sc.Ev != nil {
			seed := gpopt.NewFromRouting(sc.Survivor, sc.DAGs, gpopt.Config{Iters: s.cfg.WarmOptIters}, sc.Routing)
			s.cur = sc.Survivor
			s.dags = sc.DAGs
			s.ev = sc.Ev.WithBox(s.box)
			s.opt = nil // fresh epoch: previous optimizer indexes the old edge IDs
			s.reoptimize(ctx, true, seed)
			return s.record(Event{
				Kind: kind, Detail: detail, Warm: true,
				Perf: s.perf, ECMPPerf: s.ecmpPerf,
				OuterIters: s.lastOuter, Scenarios: len(s.critical),
				Elapsed: time.Since(start),
			}), nil
		}
	}

	var dags []*dagx.DAG
	if s.incs != nil {
		// Rebuild the survivor DAGs from the repaired distance fields — no
		// cold Dijkstra anywhere, and bit-identical to one (parity tests).
		dags = make([]*dagx.DAG, len(s.incs))
		for t, inc := range s.incs {
			dags[t] = dagx.AugmentedFromTree(survivor, inc.TreeCopy())
		}
	} else {
		dags = dagx.BuildAll(survivor, dagx.Augmented)
	}

	s.cur = survivor
	s.dags = dags
	s.ev = oblivious.NewEvaluator(survivor, dags, s.box, s.evalConfig())
	s.opt = nil // fresh epoch: previous optimizer indexes the old edge IDs
	s.reoptimize(ctx, false, nil)
	return s.record(Event{
		Kind: kind, Detail: detail, Warm: false,
		Perf: s.perf, ECMPPerf: s.ecmpPerf,
		OuterIters: s.lastOuter, Scenarios: len(s.critical),
		Elapsed: time.Since(start),
	}), nil
}

// Lies synthesizes the fake-node LSAs realizing the current configuration
// (quantized to extraPerInterface virtual next-hops per interface),
// verifies them, and computes the minimal LSA diff against the previously
// emitted lie set. The diff itself is verified: applying it to the
// previous synthesis must reproduce the new forwarding exactly. The new
// synthesis becomes the next diff baseline.
func (s *Session) Lies(extraPerInterface int) (*LieResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ctx, span := obs.StartSpan(s.traceCtx(), "session.lies")
	defer span.End()
	start := time.Now()
	_, wspan := obs.StartSpan(ctx, "session.wcmp")
	q, err := wcmp.Apply(s.routing, extraPerInterface)
	wspan.End()
	if err != nil {
		return nil, err
	}
	_, fspan := obs.StartSpan(ctx, "session.fibbing")
	syn, err := fibbing.Synthesize(s.cur, q)
	if err != nil {
		fspan.End()
		return nil, err
	}
	if err := fibbing.Verify(s.cur, q, syn); err != nil {
		fspan.End()
		return nil, fmt.Errorf("delta: lie verification failed: %w", err)
	}
	diff := fibbing.Diff(s.prevSyn, syn)
	if err := fibbing.VerifyDiff(s.cur, s.prevSyn, diff, syn); err != nil {
		fspan.End()
		return nil, fmt.Errorf("delta: diff verification failed: %w", err)
	}
	fspan.Attr("fake_nodes", syn.FakeNodes).Attr("churn", diff.Churn()).End()
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

// Routing returns the current per-destination routing. The returned value
// must be treated as read-only.
func (s *Session) Routing() *pdrouting.Routing {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.routing
}

// Perf returns the current worst-case normalized utilization.
func (s *Session) Perf() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.perf
}

// ECMPPerf returns traditional ECMP's worst-case normalized utilization on
// the current epoch (same DAGs and uncertainty set).
func (s *Session) ECMPPerf() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ecmpPerf
}

// Graph returns the current (possibly degraded) topology.
func (s *Session) Graph() *graph.Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// Base returns the intact topology the session was created with.
func (s *Session) Base() *graph.Graph { return s.base }

// Bounds returns the current uncertainty set.
func (s *Session) Bounds() *demand.Box {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.box
}

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
// rather than stalling the controller. Missed deliveries are counted —
// per subscriber and in the session total reported by Dropped — so the
// loss is observable instead of silent.
func (s *Session) Subscribe() (<-chan Event, func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextSub
	s.nextSub++
	sub := &subscriber{ch: make(chan Event, 16)}
	s.subs[id] = sub
	return sub.ch, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.subs[id]; ok {
			delete(s.subs, id)
			close(sub.ch)
		}
	}
}

// Dropped returns the number of events that were not delivered to some
// subscriber because its channel was full, summed over the session's
// lifetime (cancelled subscribers included).
func (s *Session) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}
