package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	coyote "github.com/coyote-te/coyote"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/lp"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/sweep"
	"github.com/coyote-te/coyote/internal/topo"
)

// Sizing constants. They were chosen so one timed run of every workload,
// set-up included, stays near 35 s at -seconds 20 on a 2-core box; they are
// sizing, not baselines.
const (
	lieBudget = 3 // extra virtual next-hops per interface, as in Fig. 10

	// ba42TopoSeed pins the Barabási–Albert topology. The generator seed is
	// not taken from -seed: one op costs 13 s to 21 s depending on the graph
	// drawn, which no regression bound survives.
	ba42TopoSeed = 2

	minOps           = 3  // a run never measures fewer ops, whatever -seconds says
	fastRepsPerOp    = 30 // Lies(3) calls, resp. warm passes, timed after each op
	goldenUnits      = 14
	driftSigma       = 0.25           // log-normal per-pair drift of the online demand estimate
	cheapSetupReps   = 21             // before the first op of a workload whose set-up is cheap
	setupRepsPerOp   = 10             // and after every op
	sessionSetupReps = 3              // online-nsf: each creates a session with its failover plan
	buildDir         = ".bench_build" // scratch inside the checkout; in .gitignore
)

// result is what one run of one workload produces.
type result struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Traced    bool                 `json:"traced"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
	Ops       int                  `json:"ops"`
	WallS     float64              `json:"wall_s"`
	Values    map[string]float64   `json:"values"`
	Samples   map[string][]float64 `json:"samples,omitempty"` // raw timings behind the medians
	Counts    map[string]float64   `json:"counts,omitempty"`  // deterministic per-op counts, equal across runs of a seed
}

func newResult(workload string, seed int64, traced bool) *result {
	return &result{Workload: workload, Seed: seed, Traced: traced,
		Values: map[string]float64{}, Samples: map[string][]float64{}, Counts: map[string]float64{}}
}

// attempt counts one operation (or one run-level check) and, when it did
// not hold, one failure with its reason.
func (r *result) attempt(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		if len(r.Failures) < 20 {
			r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
		}
	}
}

// timing stores a sample and reports its median under name.
func (r *result) timing(name string, xs []float64) {
	r.Samples[name] = xs
	r.Values[name] = median(xs)
}

// setupTimer repeats a workload's set-up and keeps every duration: setup_s
// is their median. A cheap set-up lasts microseconds, so repeating it only
// before the first op would sample whatever state the host is in for those
// few milliseconds; it is therefore repeated after every op as well, which
// spreads the sample over the whole run. The online session's set-up takes
// seconds and is repeated up front only.
type setupTimer struct {
	setup func() error
	xs    []float64
}

func (s *setupTimer) repeat(n int) error {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := s.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		s.xs = append(s.xs, time.Since(t0).Seconds())
	}
	return nil
}

// memMark reads the allocation counters an op's cost is the delta of.
type memMark struct {
	alloc, mallocs uint64
	gcs            uint32
	pauseNs        uint64
}

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.TotalAlloc, ms.Mallocs, ms.NumGC, ms.PauseTotalNs}
}

func (m memMark) mbSince() float64 { return float64(markMem().alloc-m.alloc) / (1 << 20) }

// ---- cold workloads -------------------------------------------------------

type coldWorkload struct {
	name  string
	load  func() (*coyote.Topology, error) // the public-API set-up
	graph func() (*graph.Graph, error)     // the same network for the stage-by-stage replay
	opts  func(seed int64) coyote.Options
}

func coldWorkloadByName(name string) coldWorkload {
	if name == coldGeant {
		return coldWorkload{
			name:  name,
			load:  func() (*coyote.Topology, error) { return coyote.LoadTopology("Geant") },
			graph: func() (*graph.Graph, error) { return topo.Load("Geant") },
			opts:  func(seed int64) coyote.Options { return coyote.Options{Seed: seed, Workers: 1} },
		}
	}
	p := scen.Params{N: 42, M: 2, Seed: ba42TopoSeed}
	return coldWorkload{
		name:  name,
		load:  func() (*coyote.Topology, error) { return coyote.GenerateTopology("ba", p) },
		graph: func() (*graph.Graph, error) { return scen.Generate("ba", p) },
		opts: func(seed int64) coyote.Options {
			return coyote.Options{OptimizerIters: 120, AdversarialIters: 2, Samples: 3, Eps: 0.4, Seed: seed, Workers: 1}
		},
	}
}

// opSeed spreads a run over several Options.Seed values so that op_p50_s is
// a median over inputs, not the cost of one lucky corner sample. Ops 0 and 1
// share a seed: they must agree bit for bit.
func opSeed(seed int64, op int) int64 {
	if op > 0 {
		op--
	}
	return seed*1000 + int64(op)
}

// coldOp is the outcome of one Compute+Lies.
type coldOp struct {
	wall      float64
	perf      float64
	ecmpPerf  float64
	fakeNodes int
	pivots    uint64
	allocMB   float64
	cfg       *coyote.Config
	err       error
}

func runColdOp(t *coyote.Topology, b *coyote.Bounds, o coyote.Options) coldOp {
	mem := markMem()
	piv := lp.GlobalStats().Iterations
	t0 := time.Now()
	cfg, err := coyote.New(t, b, o).Compute()
	if err != nil {
		return coldOp{err: err}
	}
	lies, err := cfg.Lies(lieBudget)
	if err != nil {
		return coldOp{err: err}
	}
	return coldOp{
		wall: time.Since(t0).Seconds(), perf: cfg.Perf, ecmpPerf: cfg.ECMPPerf,
		fakeNodes: lies.FakeNodes, pivots: lp.GlobalStats().Iterations - piv,
		allocMB: mem.mbSince(), cfg: cfg,
	}
}

// checkColdOp applies the output checks every cold op must pass.
func (r *result) checkColdOp(i int, o coldOp) bool {
	switch {
	case o.err != nil:
		r.attempt(false, "op %d: %v", i, o.err)
	case !okPerf(o.perf, o.ecmpPerf):
		r.attempt(false, "op %d: Perf %v is not finite or worse than ECMP %v", i, o.perf, o.ecmpPerf)
	default:
		r.attempt(true, "")
		return true
	}
	return false
}

func sameColdOutput(a, b coldOp) bool {
	return math.Float64bits(a.perf) == math.Float64bits(b.perf) && a.fakeNodes == b.fakeNodes && a.pivots == b.pivots
}

func runCold(w coldWorkload, seed int64, seconds float64) (*result, error) {
	r := newResult(w.name, seed, false)
	var t *coyote.Topology
	var b *coyote.Bounds
	setup := &setupTimer{setup: func() error {
		var err error
		if t, err = w.load(); err != nil {
			return err
		}
		if err = t.Validate(); err != nil {
			return err
		}
		b = coyote.MarginBounds(coyote.GravityDemands(t, 1), 2)
		return nil
	}}
	if err := setup.repeat(cheapSetupReps); err != nil {
		return nil, err
	}

	runtime.GC()
	var ops []coldOp
	var walls, fast, perfs, allocs []float64
	start := time.Now()
	for i := 0; i < minOps || time.Since(start).Seconds() < seconds; i++ {
		o := runColdOp(t, b, w.opts(opSeed(seed, i)))
		ops = append(ops, o)
		if !r.checkColdOp(i, o) {
			continue
		}
		walls = append(walls, o.wall)
		perfs = append(perfs, o.perf)
		allocs = append(allocs, o.allocMB)
		for k := 0; k < fastRepsPerOp; k++ {
			t0 := time.Now()
			if _, err := o.cfg.Lies(lieBudget); err != nil {
				r.attempt(false, "op %d: repeated Lies: %v", i, err)
				break
			}
			fast = append(fast, time.Since(t0).Seconds())
		}
		if err := setup.repeat(setupRepsPerOp); err != nil {
			return nil, err
		}
	}
	r.WallS = time.Since(start).Seconds()
	r.Ops = len(ops)
	r.timing("setup_s", setup.xs)
	r.attempt(ops[0].err == nil && ops[1].err == nil && sameColdOutput(ops[0], ops[1]),
		"ops 0 and 1 ran the same seed but disagree: perf %v/%v fake nodes %d/%d pivots %d/%d",
		ops[0].perf, ops[1].perf, ops[0].fakeNodes, ops[1].fakeNodes, ops[0].pivots, ops[1].pivots)
	if len(walls) == 0 {
		return r, nil
	}
	r.timing("op_p50_s", walls)
	r.timing("fast_p50_s", fast)
	r.Values["perf_ratio"] = median(perfs)
	r.Values["alloc_mb_per_op"] = median(allocs)
	r.Counts["fake_nodes"] = float64(ops[0].fakeNodes)
	r.Counts["lp_pivots_op0"] = float64(ops[0].pivots)
	return r, nil
}

// ---- online-nsf -----------------------------------------------------------

// nonBridgeLinks lists the links whose failure leaves g connected: the only
// ones Session.Fail accepts, so no operation of the workload is refused.
func nonBridgeLinks(g *graph.Graph) []graph.EdgeID {
	var out []graph.EdgeID
	for _, id := range g.Links() {
		if g.WithoutLink(id).Connected() {
			out = append(out, id)
		}
	}
	return out
}

// onlineSchedule yields, per round, the link to fail and the drifted demand
// estimate, all from one seeded stream: every non-bridge link once per
// cycle in a seeded order, and an independent log-normal drift of every
// pair of the gravity base.
type onlineSchedule struct {
	links []graph.EdgeID
	order []int
	base  *coyote.DemandMatrix
	rng   *rand.Rand
}

func newOnlineSchedule(g *graph.Graph, base *coyote.DemandMatrix, seed int64) *onlineSchedule {
	rng := rand.New(rand.NewSource(seed))
	links := nonBridgeLinks(g)
	return &onlineSchedule{links: links, order: rng.Perm(len(links)), base: base, rng: rng}
}

func (s *onlineSchedule) round(r int) (graph.EdgeID, *coyote.Bounds) {
	drifted := s.base.Clone()
	for i, v := range drifted.D {
		drifted.D[i] = v * math.Exp(driftSigma*s.rng.NormFloat64())
	}
	return s.links[s.order[r%len(s.links)]], coyote.MarginBounds(drifted, 2)
}

func onlineOptions(seed int64) coyote.Options {
	return coyote.Options{Seed: seed, Workers: 1, PrecomputeFailover: true}
}

// okPerf is the output check on every reported PERF: a finite positive ratio
// no worse than traditional ECMP under the same adversary.
func okPerf(perf, ecmp float64) bool {
	return perf > 0 && !math.IsInf(perf, 0) && !math.IsNaN(perf) && perf <= ecmp
}

func runOnline(seed int64, seconds float64) (*result, error) {
	r := newResult(onlineNSF, seed, false)
	g, err := topo.Load("NSF")
	if err != nil {
		return nil, err
	}
	var ses *coyote.Session
	var base *coyote.DemandMatrix
	setup := &setupTimer{setup: func() error {
		t, err := coyote.LoadTopology("NSF")
		if err != nil {
			return err
		}
		base = coyote.GravityDemands(t, 1)
		if ses, err = coyote.NewSession(t, coyote.MarginBounds(base, 2), onlineOptions(seed)); err != nil {
			return err
		}
		// The first emission is a full injection; every later Lies is a diff.
		_, err = ses.Lies(lieBudget)
		return err
	}}
	if err := setup.repeat(sessionSetupReps); err != nil {
		return nil, err
	}
	r.timing("setup_s", setup.xs)
	sched := newOnlineSchedule(g, base, seed)

	runtime.GC()
	var rounds, fails, updates, recovers, allocs, perfs []float64
	var churn, fakes, lies int
	start := time.Now()
	// Quality and counts are taken over the first cycle (every link once), so
	// they do not depend on how many rounds the box fits into -seconds.
	cycle := len(sched.links)
	for i := 0; i < cycle || time.Since(start).Seconds() < seconds; i++ {
		link, box := sched.round(i)
		mem := markMem()
		t0 := time.Now()
		upd, err := ses.UpdateBounds(box)
		t1 := time.Now()
		if err != nil {
			r.attempt(false, "round %d: UpdateBounds: %v", i, err)
			continue
		}
		fe, err := ses.Fail(link)
		if err != nil {
			r.attempt(false, "round %d: Fail(%d): %v", i, link, err)
			continue
		}
		l1, err1 := ses.Lies(lieBudget)
		t2 := time.Now()
		re, err := ses.Recover(link)
		if err != nil {
			r.attempt(false, "round %d: Recover(%d): %v", i, link, err)
			continue
		}
		l2, err2 := ses.Lies(lieBudget)
		t3 := time.Now()
		alloc := mem.mbSince()
		switch {
		case err1 != nil || err2 != nil:
			r.attempt(false, "round %d: Lies: %v %v", i, err1, err2)
			continue
		case !upd.Warm:
			r.attempt(false, "round %d: UpdateBounds recomputed cold", i)
			continue
		case !okPerf(upd.Perf, upd.ECMPPerf) || !okPerf(fe.Perf, fe.ECMPPerf) || !okPerf(re.Perf, re.ECMPPerf):
			r.attempt(false, "round %d: Perf not finite or worse than ECMP: %v/%v %v/%v %v/%v", i,
				upd.Perf, upd.ECMPPerf, fe.Perf, fe.ECMPPerf, re.Perf, re.ECMPPerf)
			continue
		}
		r.attempt(true, "")
		updates = append(updates, t1.Sub(t0).Seconds())
		fails = append(fails, t2.Sub(t1).Seconds())
		recovers = append(recovers, t3.Sub(t2).Seconds())
		rounds = append(rounds, t3.Sub(t0).Seconds())
		allocs = append(allocs, alloc)
		if i < cycle {
			perfs = append(perfs, upd.Perf, fe.Perf, re.Perf)
			churn += l1.Churn() + l2.Churn()
			fakes += l1.FakeNodes + l2.FakeNodes
			lies += 2
		}
	}
	r.WallS = time.Since(start).Seconds()
	r.Ops = len(rounds)
	r.attempt(len(ses.FailedLinks()) == 0, "session ends with failed links %v", ses.FailedLinks())
	if len(rounds) == 0 {
		return r, nil
	}
	r.timing("op_p50_s", rounds)
	r.timing("fast_p50_s", fails)
	r.Samples["update_s"] = updates
	r.Samples["recover_s"] = recovers
	r.Values["perf_ratio"] = mean(perfs)
	r.Values["alloc_mb_per_op"] = median(allocs)
	if lies > 0 {
		r.Counts["lsa_churn_per_round"] = float64(churn) / float64(lies/2)
		r.Counts["fake_nodes"] = float64(fakes) / float64(lies)
	}
	return r, nil
}

// ---- sweep-golden ---------------------------------------------------------

const goldenDir = "testdata/golden"

// goldenCampaign is the checked-in regression campaign with the unit-level
// and the evaluation-engine pools both pinned to one worker.
func goldenCampaign() (sweep.Campaign, error) {
	c, err := sweep.Golden()
	c.Cfg.Workers = 1
	return c, err
}

func sweepOptions(cache *sweep.Cache, stream *bytes.Buffer) sweep.Options {
	// A fixed fingerprint keeps the executable's hash out of set-up.
	return sweep.Options{Cache: cache, Workers: 1, Fingerprint: "bench", Stream: stream}
}

// corpusPerf is the mean COYOTE PERF at the widest margin over the campaign's
// corpus units: the sweep's contribution to perf_ratio. The golden diff pins
// it, so it moves only together with a golden drift.
func corpusPerf(results []sweep.Result) (float64, error) {
	var xs []float64
	for _, res := range results {
		if !strings.HasPrefix(res.Unit, "corpus/") || res.Table == nil || len(res.Table.Rows) == 0 {
			continue
		}
		col := -1
		for i, c := range res.Table.Columns {
			if strings.HasPrefix(c, "COYOTE") {
				col = i
				break
			}
		}
		last := res.Table.Rows[len(res.Table.Rows)-1]
		if col < 0 || col >= len(last) {
			return 0, fmt.Errorf("unit %s has no COYOTE column", res.Unit)
		}
		v, err := strconv.ParseFloat(last[col], 64)
		if err != nil {
			return 0, fmt.Errorf("unit %s: %w", res.Unit, err)
		}
		xs = append(xs, v)
	}
	if len(xs) == 0 {
		return 0, fmt.Errorf("no corpus unit in the campaign results")
	}
	return mean(xs), nil
}

// sweepPass is one cold run on a fresh cache followed by warm runs on it.
type sweepPass struct {
	cold     float64
	warm     []float64
	warmHits int
	allocMB  float64
	report   *sweep.Report // nil when the cold run failed
	stream   bytes.Buffer
	cache    *sweep.Cache
}

func newCacheDir() (*sweep.Cache, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "sweep-cache-")
	if err != nil {
		return nil, err
	}
	return sweep.Open(dir)
}

// coldPass runs the campaign on the pass's empty cache and checks the
// results against the golden corpus. progress may be nil.
func (p *sweepPass) coldPass(r *result, i int, c sweep.Campaign, golden []sweep.Result, progress func(sweep.UnitStatus)) {
	opts := sweepOptions(p.cache, &p.stream)
	opts.Progress = progress
	mem := markMem()
	t0 := time.Now()
	rep, err := sweep.Run(c, opts)
	p.cold = time.Since(t0).Seconds()
	p.allocMB = mem.mbSince()
	if err != nil {
		r.attempt(false, "pass %d: cold run: %v", i, err)
		return
	}
	p.report = rep
	drifts := sweep.Diff(golden, rep.Results, 0)
	switch {
	case rep.Misses != goldenUnits || rep.Hits != 0:
		r.attempt(false, "pass %d: cold run had %d misses, %d hits, want %d and 0", i, rep.Misses, rep.Hits, goldenUnits)
	case len(drifts) > 0:
		r.attempt(false, "pass %d: %d golden drifts, first: %s", i, len(drifts), drifts[0])
	default:
		r.attempt(true, "")
	}
}

// warmPasses re-runs the campaign on the now-warm cache: all hits, and a
// stream byte-identical to the cold one.
func (p *sweepPass) warmPasses(r *result, i int, c sweep.Campaign, reps int) {
	for k := 0; k < reps; k++ {
		var stream bytes.Buffer
		t0 := time.Now()
		rep, err := sweep.Run(c, sweepOptions(p.cache, &stream))
		d := time.Since(t0).Seconds()
		switch {
		case err != nil:
			r.attempt(false, "pass %d: warm run %d: %v", i, k, err)
		case rep.Hits != goldenUnits:
			r.attempt(false, "pass %d: warm run %d had %d hits, want %d", i, k, rep.Hits, goldenUnits)
		case !bytes.Equal(stream.Bytes(), p.stream.Bytes()):
			r.attempt(false, "pass %d: warm stream %d differs from the cold one", i, k)
		default:
			r.attempt(true, "")
			p.warm = append(p.warm, d)
			p.warmHits += rep.Hits
		}
	}
}

func runSweep(seed int64, seconds float64) (*result, error) {
	r := newResult(sweepGolden, seed, false)
	var c sweep.Campaign
	var golden []sweep.Result
	setup := &setupTimer{setup: func() error {
		var err error
		if c, err = goldenCampaign(); err != nil {
			return err
		}
		if golden, err = sweep.ReadGolden(goldenDir); err != nil {
			return err
		}
		if len(c.Units) != goldenUnits || len(golden) != goldenUnits {
			return fmt.Errorf("golden campaign has %d units and %s %d files, this benchmark is sized for %d",
				len(c.Units), goldenDir, len(golden), goldenUnits)
		}
		return os.MkdirAll(buildDir, 0o755)
	}}
	if err := setup.repeat(cheapSetupReps); err != nil {
		return nil, err
	}

	runtime.GC()
	var cold, warm, allocs []float64
	var perf float64
	start := time.Now()
	for i := 0; i < minOps || time.Since(start).Seconds() < seconds; i++ {
		cache, err := newCacheDir()
		if err != nil {
			return nil, err
		}
		p := &sweepPass{cache: cache}
		p.coldPass(r, i, c, golden, nil)
		if p.report != nil {
			p.warmPasses(r, i, c, fastRepsPerOp)
		}
		os.RemoveAll(cache.Dir())
		if err := setup.repeat(setupRepsPerOp); err != nil {
			return nil, err
		}
		if p.report == nil {
			continue
		}
		cold = append(cold, p.cold)
		warm = append(warm, p.warm...)
		allocs = append(allocs, p.allocMB)
		if perf, err = corpusPerf(p.report.Results); err != nil {
			r.attempt(false, "pass %d: %v", i, err)
		}
	}
	r.WallS = time.Since(start).Seconds()
	r.Ops = len(cold)
	r.timing("setup_s", setup.xs)
	if len(cold) == 0 || len(warm) == 0 {
		return r, nil
	}
	r.timing("op_p50_s", cold)
	r.timing("fast_p50_s", warm)
	r.Values["perf_ratio"] = perf
	r.Values["alloc_mb_per_op"] = median(allocs)
	return r, nil
}

// runTimed measures one workload with tracing off, through the public API.
func runTimed(workload string, seed int64, seconds float64) (*result, error) {
	switch workload {
	case coldGeant, scaleBA42:
		return runCold(coldWorkloadByName(workload), seed, seconds)
	case onlineNSF:
		return runOnline(seed, seconds)
	case sweepGolden:
		return runSweep(seed, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}
