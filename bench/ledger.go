package main

import (
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	coyote "github.com/coyote-te/coyote"
	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/delta"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/fibbing"
	"github.com/coyote-te/coyote/internal/gpopt"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/localsearch"
	"github.com/coyote-te/coyote/internal/lp"
	"github.com/coyote-te/coyote/internal/mcf"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/serve"
	"github.com/coyote-te/coyote/internal/spf"
	"github.com/coyote-te/coyote/internal/strategy"
	"github.com/coyote-te/coyote/internal/sweep"
	"github.com/coyote-te/coyote/internal/topo"
	"github.com/coyote-te/coyote/internal/wcmp"
)

// The traced run. It measures each layer from outside: the benchmark's own
// spans around calls into the layer's exported functions, plus deltas of the
// obs.Default registry and of runtime.MemStats taken at the same boundaries.
// A layer metric reads 0 on a workload that does not run the layer — or
// where the layer runs only beneath a call this file cannot look into.

// ledger holds one value per per-layer metric name.
type ledger map[string]float64

var layerNames = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range perLayer {
		m[l.Name] = true
	}
	return m
}()

func newLedger() ledger {
	l := ledger{}
	for name := range layerNames {
		l[name] = 0
	}
	return l
}

// set stores a layer metric; a name outside the table is a bug in this file.
func (l ledger) set(name string, v float64) {
	if !layerNames[name] {
		panic("bench: layer metric " + name + " is not in the spec table")
	}
	l[name] = v
}

// regMark flattens the obs.Default registry: counters and gauges by
// name{labels}, histograms as name_sum and name_count.
type regMark map[string]float64

func markRegistry() regMark {
	m := regMark{}
	for _, fam := range obs.Default.Snapshot() {
		for _, ms := range fam.Metrics {
			key := fam.Name
			if len(ms.LabelValues) > 0 {
				key += "{" + strings.Join(ms.LabelValues, ",") + "}"
			}
			if fam.Type == obs.HistogramType {
				m[key+"_sum"] = ms.Sum
				m[key+"_count"] = float64(ms.Count)
			} else {
				m[key] = ms.Value
			}
		}
	}
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perOpCounters fills the registry- and runtime-derived layer metrics from
// marks taken before and after ops operations.
func (l ledger) perOpCounters(reg0, reg1 regMark, mem0, mem1 memMark, ops float64) {
	d := func(key string) float64 { return reg1[key] - reg0[key] }
	l.set("lp.solves_per_op", d("coyote_lp_solves_total")/ops)
	l.set("lp.pivots_per_op", d("coyote_lp_iterations_total")/ops)
	l.set("lp.phase1_pivots_per_op", d("coyote_lp_phase1_iterations_total")/ops)
	l.set("lp.dual_pivots_per_op", d("coyote_lp_dual_iterations_total")/ops)
	l.set("lp.refactorizations_per_op", d("coyote_lp_refactorizations_total")/ops)
	l.set("lp.warm_hit_rate", ratio(d("coyote_lp_warm_hits_total"), d("coyote_lp_warm_attempts_total")))
	l.set("lp.dual_hit_rate", ratio(d("coyote_lp_dual_hits_total"), d("coyote_lp_dual_attempts_total")))
	l.set("lp.dense_fallbacks", d("coyote_lp_dense_fallbacks_total"))
	l.set("par.tasks_per_op", d("coyote_par_tasks_total")/ops)
	l.set("par.loops_per_op", d("coyote_par_loops_total")/ops)
	l.set("par.queue_wait_s", d("coyote_par_queue_wait_seconds_sum")/ops)
	l.set("go.allocs_per_op", float64(mem1.mallocs-mem0.mallocs)/ops)
	l.set("go.gc_cycles_per_op", float64(mem1.gcs-mem0.gcs)/ops)
	l.set("go.gc_pause_ms_per_op", float64(mem1.pauseNs-mem0.pauseNs)/1e6/ops)
}

// meanMicros times reps calls of fn and returns the mean in microseconds.
func meanMicros(reps int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return float64(time.Since(t0).Microseconds()) / float64(reps)
}

// unattributed is the share of the root spans' time that no layer span
// covers: their self time over their duration.
func unattributed(spans []span) float64 {
	self := selfTimes(spans)
	var selfSum, total time.Duration
	for i, s := range spans {
		if s.Parent < 0 && s.Name == "op" {
			selfSum += self[i]
			total += s.dur()
		}
	}
	return ratio(selfSum.Seconds(), total.Seconds())
}

// liesProbes times the lie-synthesis layers on a routing.
func (l ledger) liesProbes(rec *recorder, g *graph.Graph, routing *pdrouting.Routing, D *demand.Matrix) error {
	var q *wcmp.QuantizedRouting
	var syn *fibbing.Synthesis
	var err error
	l.set("wcmp.apply_s", rec.do("wcmp.apply", func() { q, err = wcmp.Apply(routing, lieBudget) }).Seconds())
	if err != nil {
		return err
	}
	l.set("fibbing.synthesize_s", rec.do("fibbing.synthesize", func() { syn, err = fibbing.Synthesize(g, q) }).Seconds())
	if err != nil {
		return err
	}
	l.set("fibbing.verify_s", rec.do("fibbing.verify", func() { err = fibbing.Verify(g, q, syn) }).Seconds())
	if err != nil {
		return err
	}
	l.set("wcmp.virtual_links", float64(q.VirtualLinks))
	l.set("fibbing.fake_nodes", float64(syn.FakeNodes))
	n := g.NumNodes()
	l.set("ospf.lsdb_spf_us", meanMicros(n, func() {
		for t := 0; t < n; t++ {
			syn.LSDB.SPF(graph.NodeID(t))
		}
	})/float64(n))
	l.set("pdrouting.maxutil_us", meanMicros(50, func() { routing.MaxUtilization(D) }))
	return nil
}

// ---- cold workloads: stage-by-stage replay --------------------------------

const defaultOptimizerIters = 400 // coyote.Options.OptimizerIters when zero

// replay is the outcome of running the Compute+Lies pipeline stage by stage.
type replay struct {
	perf, ecmpPerf float64
	fakeNodes      int
	rounds         int
	gpoptRuns      int
	ecmpFallback   bool
	wall           time.Duration
	dags           []*dagx.DAG
	routing        *pdrouting.Routing
	opt            *gpopt.Optimizer
	scenarios      []gpopt.Scenario
	err            error
}

// matrixKey is oblivious's scenario fingerprint (FNV-1a over the entries'
// little-endian bits); the replay must deduplicate exactly as the loop does.
func matrixKey(D *demand.Matrix) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range D.D {
		bits := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// replayCold re-runs Engine.Compute and Config.Lies through the exported
// functions of the layers beneath them, one span per stage, in the order and
// with the arguments internal/oblivious's adversarial loop uses. Its Perf and
// fake-node count must equal the untraced op's bit for bit.
func replayCold(rec *recorder, g *graph.Graph, box *demand.Box, o coyote.Options) (rp replay) {
	n := g.NumNodes()
	advIters := o.AdversarialIters
	if advIters <= 0 {
		advIters = 6
	}
	solveSpan := "mcf.exact_solve"
	if n > oblivious.DefaultExactNodeLimit {
		solveSpan = "mcf.fptas_solve"
	}
	root := rec.begin("op")
	defer func() { rp.wall = rec.end(root) }()

	rec.do("graph.validate", func() {
		if rp.err = g.Validate(); rp.err == nil && !g.Connected() {
			rp.err = fmt.Errorf("topology is not strongly connected")
		}
	})
	if rp.err != nil {
		return rp
	}
	var trees []*spf.Tree
	rec.do("spf.all_destinations", func() { trees = spf.AllDestinations(g) })
	rec.do("dagx.build_all", func() {
		rp.dags = make([]*dagx.DAG, n)
		for t := range trees {
			rp.dags[t] = dagx.AugmentedFromTree(g, trees[t])
		}
	})
	evalCfg := oblivious.EvalConfig{Eps: o.Eps, Samples: o.Samples, Seed: o.Seed, Workers: o.Workers}
	var ev *oblivious.Evaluator
	rec.do("oblivious.new_evaluator", func() { ev = oblivious.NewEvaluator(g, rp.dags, box, evalCfg) })

	seen := map[uint64]bool{}
	add := func(D *demand.Matrix, norm float64) bool {
		if D == nil || D.Total() <= 0 || norm <= 0 || math.IsInf(norm, 1) {
			return false
		}
		k := matrixKey(D)
		if seen[k] {
			return false
		}
		seen[k] = true
		rp.scenarios = append(rp.scenarios, gpopt.NewScenario(g, D, norm))
		return true
	}
	optDAG := func(D *demand.Matrix) (v float64) {
		rec.do(solveSpan, func() { v = ev.OptDAG(D) })
		return v
	}
	adversary := func(r *pdrouting.Routing, k int) (top []oblivious.Result) {
		rec.do("oblivious.adversary", func() { top = ev.PerfTop(r, k) })
		return top
	}
	const topK = 4

	seed := rec.begin("oblivious.seed")
	maxCorner := box.Max.Clone()
	add(maxCorner, optDAG(maxCorner))
	mid := demand.NewMatrix(n)
	for i := range mid.D {
		mid.D[i] = math.Sqrt(box.Min.D[i] * box.Max.D[i])
	}
	add(mid, optDAG(mid))
	rec.do("gpopt.new", func() {
		rp.opt = gpopt.New(g, rp.dags, gpopt.Config{Iters: o.OptimizerIters, Workers: o.Workers})
	})
	for _, res := range adversary(rp.opt.Routing(), topK) {
		add(res.WorstDM, res.Norm)
	}
	rec.end(seed)

	best := oblivious.Result{Ratio: math.Inf(1)}
	for iter := 0; iter < advIters; iter++ {
		rp.rounds++
		round := rec.begin("oblivious.round")
		rec.do("gpopt.run", func() { rp.opt.Run(rp.scenarios) })
		rp.gpoptRuns++
		r := rp.opt.Routing()
		top := adversary(r, topK)
		if top[0].Ratio < best.Ratio {
			best, rp.routing = top[0], r
		}
		anyNew := false
		for _, cand := range top {
			if add(cand.WorstDM, cand.Norm) {
				anyNew = true
			}
		}
		rec.end(round)
		if !anyNew {
			break
		}
	}

	guarantee := rec.begin("oblivious.ecmp_guarantee")
	ecmp := oblivious.ECMPOnDAGs(g, rp.dags)
	ecmpRes := adversary(ecmp, 1)[0]
	rec.end(guarantee)
	rp.ecmpPerf = ecmpRes.Ratio
	if ecmpRes.Ratio < best.Ratio || rp.routing == nil {
		best, rp.routing, rp.ecmpFallback = ecmpRes, ecmp, true
	}
	rp.perf = best.Ratio

	var q *wcmp.QuantizedRouting
	var syn *fibbing.Synthesis
	rec.do("wcmp.apply", func() { q, rp.err = wcmp.Apply(rp.routing, lieBudget) })
	if rp.err != nil {
		return rp
	}
	rec.do("fibbing.synthesize", func() { syn, rp.err = fibbing.Synthesize(g, q) })
	if rp.err != nil {
		return rp
	}
	rec.do("fibbing.verify", func() { rp.err = fibbing.Verify(g, q, syn) })
	rp.fakeNodes = syn.FakeNodes
	return rp
}

func traceCold(w coldWorkload, seed int64) (*result, []span, error) {
	r := newResult(w.name, seed, true)
	l := newLedger()
	r.Values = l
	rec := newRecorder()

	var g *graph.Graph
	var err error
	load := rec.do("setup.load", func() { g, err = w.graph() })
	if err != nil {
		return nil, nil, err
	}
	if w.name == coldGeant {
		l.set("topo.load_s", load.Seconds())
	} else {
		l.set("scen.generate_s", load.Seconds())
	}
	t, err := w.load()
	if err != nil {
		return nil, nil, err
	}
	b := coyote.MarginBounds(coyote.GravityDemands(t, 1), 2)
	box := demand.MarginBox(demand.Gravity(g, 1), 2)
	o := w.opts(opSeed(seed, 0))

	// Reference op: untraced, through the public API; counters at its boundary.
	reg0, mem0 := markRegistry(), markMem()
	ref := runColdOp(t, b, o)
	mem1, reg1 := markMem(), markRegistry()
	if !r.checkColdOp(0, ref) {
		return r, rec.spans, nil
	}
	l.perOpCounters(reg0, reg1, mem0, mem1, 1)

	rec.nextOp()
	rp := replayCold(rec, g, box, o)
	r.attempt(rp.err == nil && math.Float64bits(rp.perf) == math.Float64bits(ref.perf) &&
		math.Float64bits(rp.ecmpPerf) == math.Float64bits(ref.ecmpPerf) && rp.fakeNodes == ref.fakeNodes,
		"replay differs from Compute: perf %v/%v ecmp %v/%v fake nodes %d/%d err %v",
		rp.perf, ref.perf, rp.ecmpPerf, ref.ecmpPerf, rp.fakeNodes, ref.fakeNodes, rp.err)
	if rp.err != nil {
		return r, rec.spans, nil
	}
	r.Ops = 2
	l.set("trace.unattributed_share", unattributed(rec.spans))
	l.set("obs.trace_overhead_share", rp.wall.Seconds()/ref.wall-1)

	advTotal, advCalls := byName(rec.spans, "oblivious.adversary")
	l.set("oblivious.adversary_s", advTotal.Seconds())
	l.set("oblivious.adversary_calls", float64(advCalls))
	l.set("oblivious.seed_s", secondsPer(rec.spans, "oblivious.seed"))
	l.set("oblivious.ecmp_guarantee_s", secondsPer(rec.spans, "oblivious.ecmp_guarantee"))
	l.set("oblivious.rounds", float64(rp.rounds))
	l.set("oblivious.scenarios", float64(len(rp.scenarios)))
	if rp.ecmpFallback {
		l.set("oblivious.ecmp_fallback_share", 1)
	}
	runTotal, _ := byName(rec.spans, "gpopt.run")
	iters := o.OptimizerIters
	if iters <= 0 {
		iters = defaultOptimizerIters
	}
	steps := float64(iters * rp.gpoptRuns)
	l.set("gpopt.run_s", runTotal.Seconds())
	l.set("gpopt.steps", steps)
	l.set("gpopt.step_us", ratio(runTotal.Seconds()*1e6, steps))
	l.set("spf.all_dst_s", secondsPer(rec.spans, "spf.all_destinations"))
	l.set("dagx.build_all_s", secondsPer(rec.spans, "dagx.build_all"))
	edges := 0
	for _, d := range rp.dags {
		edges += d.NumEdges()
	}
	l.set("dagx.edges_total", float64(edges))

	// Probes: direct calls outside any op.
	rec.nextOp()
	if err := l.liesProbes(rec, g, rp.routing, box.Max); err != nil {
		r.attempt(false, "lie-synthesis probe: %v", err)
	}
	m0 := markMem()
	rec.do("probe.gpopt_run", func() { rp.opt.Run(rp.scenarios) })
	l.set("gpopt.allocs_per_step", float64(markMem().mallocs-m0.mallocs)/float64(iters))
	l.set("obs.snapshot_us", meanMicros(20, func() { obs.Default.Snapshot() }))

	corners := []*demand.Matrix{box.Max, box.Min}
	if g.NumNodes() <= oblivious.DefaultExactNodeLimit {
		piv0 := lp.GlobalStats().Iterations
		for _, D := range corners {
			rec.do("mcf.exact_solve", func() { _, _, err = mcf.MinMLUExact(g, rp.dags, D) })
			if err != nil {
				r.attempt(false, "mcf.MinMLUExact probe: %v", err)
			}
		}
		l.set("mcf.exact_pivots_per_solve", float64(lp.GlobalStats().Iterations-piv0)/float64(len(corners)))
		l.set("mcf.exact_solve_s", secondsPer(rec.spans, "mcf.exact_solve"))
		l.lpProbe(r, rec, g, rp.dags, box.Max)

		// FPTAS against the exact optimum on the same matrix. The span is a
		// probe span: no mcf.fptas_solve span exists on this workload.
		const eps = 0.1
		exact, _, err1 := mcf.MinMLUExact(g, rp.dags, box.Max)
		var approx float64
		var err2 error
		rec.do("probe.fptas_gap", func() { approx, _, err2 = mcf.MinMLUApprox(g, rp.dags, box.Max, eps) })
		gap := ratio(approx, exact)
		r.attempt(err1 == nil && err2 == nil && gap >= 1-1e-9 && gap <= 1+eps,
			"FPTAS/exact = %v outside [1, %v] (errors %v %v)", gap, 1+eps, err1, err2)
		l.set("mcf.fptas_gap", gap)

		// One more op at two workers: advisory speed-up, and the worker-parity
		// contract says its output is the reference op's bit for bit.
		o2 := o
		o2.Workers = 2
		w2 := runColdOp(t, b, o2)
		r.attempt(w2.err == nil && sameColdOutput(ref, w2), "Workers:2 op differs from Workers:1: %v/%v %d/%d %d/%d err %v",
			ref.perf, w2.perf, ref.fakeNodes, w2.fakeNodes, ref.pivots, w2.pivots, w2.err)
		l.set("par.speedup_w2", ratio(ref.wall, w2.wall))
	} else {
		var allocs, mbs float64
		for _, D := range corners {
			m0 := markMem()
			rec.do("mcf.fptas_solve", func() { _, _, err = mcf.MinMLUApprox(g, rp.dags, D, o.Eps) })
			m1 := markMem()
			if err != nil {
				r.attempt(false, "mcf.MinMLUApprox probe: %v", err)
			}
			allocs += float64(m1.mallocs - m0.mallocs)
			mbs += float64(m1.alloc-m0.alloc) / (1 << 20)
		}
		l.set("mcf.fptas_allocs_per_solve", allocs/float64(len(corners)))
		l.set("mcf.fptas_mb_per_solve", mbs/float64(len(corners)))
		l.set("mcf.fptas_solve_s", secondsPer(rec.spans, "mcf.fptas_solve"))
	}
	return r, rec.spans, nil
}

// lpProbe times one cold solve of the min-MLU LP and one warm re-solve after
// a right-hand-side edit, the two shapes every LP call of the pipeline has.
func (l ledger) lpProbe(r *result, rec *recorder, g *graph.Graph, dags []*dagx.DAG, D *demand.Matrix) {
	mm := mcf.NewMinMLUModel(g, dags, D)
	piv0 := lp.GlobalStats().Iterations
	var basis *lp.Basis
	var err error
	cold := rec.do("probe.lp_cold_solve", func() { _, _, basis, err = mm.Solve(nil) })
	pivots := float64(lp.GlobalStats().Iterations - piv0)
	if err != nil {
		r.attempt(false, "LP probe, cold solve: %v", err)
		return
	}
	edited := 0
	D.Pairs(func(s, t graph.NodeID, d float64) {
		if edited < 8 && d > 0 {
			if mm.SetDemand(s, t, 1.1*d) == nil {
				edited++
			}
		}
	})
	warm := rec.do("probe.lp_warm_resolve", func() { _, _, _, err = mm.Solve(&lp.SolveOptions{Basis: basis}) })
	if err != nil {
		r.attempt(false, "LP probe, warm re-solve: %v", err)
		return
	}
	l.set("lp.cold_solve_s", cold.Seconds())
	l.set("lp.warm_resolve_s", warm.Seconds())
	l.set("lp.pivots_per_s", ratio(pivots, cold.Seconds()))
}

// ---- online-nsf -----------------------------------------------------------

const tracedRounds = 8

func traceOnline(seed int64) (*result, []span, error) {
	r := newResult(onlineNSF, seed, true)
	l := newLedger()
	r.Values = l
	rec := newRecorder()

	var g *graph.Graph
	var err error
	l.set("topo.load_s", rec.do("setup.load", func() { g, err = topo.Load("NSF") }).Seconds())
	if err != nil {
		return nil, nil, err
	}
	base := demand.Gravity(g, 1)
	o := onlineOptions(seed)
	var ses *delta.Session
	create := rec.do("setup.new_session", func() {
		ses, err = delta.NewSession(g, demand.MarginBox(base, 2), delta.Config{
			Seed: o.Seed, Workers: o.Workers, PrecomputeFailover: o.PrecomputeFailover})
	})
	if err != nil {
		return nil, nil, err
	}
	// NewSession is the cold computation (its init event carries that time)
	// followed by the failover precompute.
	l.set("failover.precompute_s", (create - ses.Events()[0].Elapsed).Seconds())
	l.set("failover.plans", float64(len(g.Links())))
	prev, err := ses.Lies(lieBudget)
	if err != nil {
		return nil, nil, err
	}

	sched := newOnlineSchedule(g, base, seed)
	var outer, scen, events, swaps, churn, fakes, vlinks, lies float64
	var diffTime time.Duration
	note := func(e delta.Event) {
		outer += float64(e.OuterIters)
		scen += float64(e.Scenarios)
		events++
	}
	emit := func(i int) bool {
		var res *delta.LieResult
		var err error
		rec.do("delta.lies", func() { res, err = ses.Lies(lieBudget) })
		if err != nil {
			r.attempt(false, "round %d: Lies: %v", i, err)
			return false
		}
		churn += float64(res.Diff.Churn())
		fakes += float64(res.FakeNodes)
		vlinks += float64(res.VirtualLinks)
		lies++
		t0 := time.Now() // probe, outside the op's spans: the diff alone
		fibbing.Diff(prev.Synthesis, res.Synthesis)
		diffTime += time.Since(t0)
		prev = res
		return true
	}
	reg0, mem0 := markRegistry(), markMem()
	for i := 0; i < tracedRounds; i++ {
		link, box := sched.round(i)
		rec.nextOp()
		root := rec.begin("op")
		var upd, fe, re delta.Event
		var err1, err2, err3 error
		rec.do("delta.update", func() { upd, err1 = ses.UpdateBounds(box) })
		rec.do("delta.fail", func() { fe, err2 = ses.Fail(link) })
		ok := err1 == nil && err2 == nil && emit(i)
		if ok {
			rec.do("delta.recover", func() { re, err3 = ses.Recover(link) })
			ok = err3 == nil && emit(i)
		}
		rec.end(root)
		r.attempt(ok && upd.Warm && okPerf(upd.Perf, upd.ECMPPerf) && okPerf(fe.Perf, fe.ECMPPerf) && okPerf(re.Perf, re.ECMPPerf),
			"round %d: errors %v %v %v, update warm %v, perf %v %v %v", i, err1, err2, err3, upd.Warm, upd.Perf, fe.Perf, re.Perf)
		if !ok {
			break
		}
		note(upd)
		note(fe)
		note(re)
		if fe.Warm {
			swaps++
		}
		r.Ops++
	}
	mem1, reg1 := markMem(), markRegistry()
	r.attempt(len(ses.FailedLinks()) == 0, "session ends with failed links %v", ses.FailedLinks())
	if r.Ops == 0 {
		return r, rec.spans, nil
	}
	rounds := float64(r.Ops)
	l.perOpCounters(reg0, reg1, mem0, mem1, rounds)
	d := func(key string) float64 { return reg1[key] - reg0[key] }
	l.set("delta.update_s", secondsPer(rec.spans, "delta.update"))
	l.set("delta.fail_s", secondsPer(rec.spans, "delta.fail"))
	l.set("delta.recover_s", secondsPer(rec.spans, "delta.recover"))
	l.set("delta.lies_s", secondsPer(rec.spans, "delta.lies"))
	warm, cold := d("coyote_session_recomputes_total{true}"), d("coyote_session_recomputes_total{false}")
	l.set("delta.warm_share", ratio(warm, warm+cold))
	l.set("delta.outer_iters_per_event", ratio(outer, events))
	l.set("delta.scenarios_per_event", ratio(scen, events))
	l.set("failover.swap_hit_rate", swaps/rounds)
	l.set("spf.affected_nodes_per_event", ratio(d("coyote_spf_affected_nodes_sum"), d("coyote_spf_affected_nodes_count")))
	l.set("fibbing.churn_per_lies", ratio(churn, lies))
	l.set("fibbing.diff_s", ratio(diffTime.Seconds(), lies))
	l.set("trace.unattributed_share", unattributed(rec.spans))

	// Probes on the session's current (intact-topology) routing.
	rec.nextOp()
	if err := l.liesProbes(rec, ses.Graph(), ses.Routing(), ses.Bounds().Max); err != nil {
		r.attempt(false, "lie-synthesis probe: %v", err)
	}
	l.set("fibbing.fake_nodes", ratio(fakes, lies))
	l.set("wcmp.virtual_links", ratio(vlinks, lies))
	incs := make([]*spf.Incremental, g.NumNodes())
	for t := range incs {
		incs[t] = spf.NewIncremental(g, graph.NodeID(t))
	}
	repair := rec.do("probe.spf_repair", func() {
		for _, link := range sched.links {
			for _, inc := range incs {
				inc.FailLink(link)
			}
			for _, inc := range incs {
				inc.RecoverLink(link)
			}
		}
	})
	l.set("spf.repair_s", repair.Seconds()/float64(2*len(sched.links)))
	l.set("obs.snapshot_us", meanMicros(20, func() { obs.Default.Snapshot() }))
	h := serve.New(ses).Handler()
	get := func(path string) float64 {
		return meanMicros(20, func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
			if w.Code != http.StatusOK {
				r.attempt(false, "GET %s: status %d", path, w.Code)
			}
		})
	}
	l.set("serve.state_get_us", get("/state"))
	l.set("serve.metrics_get_us", get("/metrics"))
	return r, rec.spans, nil
}

// ---- sweep-golden ---------------------------------------------------------

func dirBytes(dir string) (total int64) {
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

func traceSweep(seed int64) (*result, []span, error) {
	r := newResult(sweepGolden, seed, true)
	l := newLedger()
	r.Values = l
	rec := newRecorder()
	c, err := goldenCampaign()
	if err != nil {
		return nil, nil, err
	}
	golden, err := sweep.ReadGolden(goldenDir)
	if err != nil {
		return nil, nil, err
	}

	// One cold pass as the op. Units run one after another, so each unit's
	// span is placed from its reported elapsed time as it completes.
	cache, err := newCacheDir()
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(cache.Dir())
	p := &sweepPass{cache: cache}
	var unitTimes []float64
	rec.nextOp()
	reg0, mem0 := markRegistry(), markMem()
	root := rec.begin("op")
	p.coldPass(r, 0, c, golden, func(u sweep.UnitStatus) {
		unitTimes = append(unitTimes, u.Elapsed.Seconds())
		rec.closed("sweep.unit", u.Elapsed)
	})
	rec.end(root)
	mem1, reg1 := markMem(), markRegistry()
	if p.report == nil {
		return r, rec.spans, nil
	}
	p.warmPasses(r, 0, c, 1)
	r.Ops = 1
	l.perOpCounters(reg0, reg1, mem0, mem1, 1)
	l.set("sweep.unit_p50_s", median(unitTimes))
	l.set("sweep.unit_max_s", percentile(unitTimes, 1))
	l.set("sweep.cache_hit_rate", ratio(float64(p.warmHits), float64(len(p.warm)*goldenUnits)))
	l.set("sweep.bytes_per_unit", float64(dirBytes(cache.Dir()))/goldenUnits)
	l.set("trace.unattributed_share", unattributed(rec.spans))

	// Cache probes: read every entry back, write each into a second cache.
	rec.nextOp()
	cache2, err := newCacheDir()
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(cache2.Dir())
	var entries []*sweep.Entry
	get := rec.do("probe.cache_get", func() {
		for _, st := range p.report.Statuses {
			e, hit, err := cache.Get(st.Key)
			if err != nil || !hit {
				r.attempt(false, "cache probe: Get(%s): hit %v err %v", st.Unit, hit, err)
				continue
			}
			entries = append(entries, e)
		}
	})
	put := rec.do("probe.cache_put", func() {
		for _, e := range entries {
			if err := cache2.Put(e); err != nil {
				r.attempt(false, "cache probe: Put(%s): %v", e.Unit, err)
			}
		}
	})
	l.set("sweep.cache_get_ms", get.Seconds()*1e3/goldenUnits)
	l.set("sweep.cache_put_ms", put.Seconds()*1e3/goldenUnits)

	// Strategy probes on the Abilene margin-2 cell at the campaign's effort.
	g, err := topo.Load("Abilene")
	if err != nil {
		return nil, nil, err
	}
	base := demand.Gravity(g, 1)
	box := demand.MarginBox(base, 2)
	scfg := strategy.Config{Seed: c.Cfg.Seed, Workers: 1, OptIters: c.Cfg.OptIters,
		AdvIters: c.Cfg.AdvIters, Samples: c.Cfg.Samples, Eps: c.Cfg.Eps}
	for _, name := range strategyNames {
		s, err := strategy.New(name, scfg)
		if err != nil {
			r.attempt(false, "strategy probe: %v", err)
			continue
		}
		var plan strategy.Plan
		d := rec.do("strategy.build."+name, func() { plan, err = strategy.Build(s, g, box) })
		if err != nil {
			r.attempt(false, "strategy probe: build %s: %v", name, err)
			continue
		}
		l.set("strategy.build_s."+name, d.Seconds())
		if name == "semi-oblivious" { // the one plan with an online Adapt path
			l.set("strategy.adapt_us", meanMicros(5, func() {
				if _, err := strategy.Apply(name, plan, base); err != nil {
					r.attempt(false, "strategy probe: adapt %s: %v", name, err)
				}
			}))
		}
	}
	d := rec.do("localsearch.optimize", func() {
		_, err = localsearch.Optimize(g, box, localsearch.Config{Seed: c.Cfg.Seed})
	})
	if err != nil {
		r.attempt(false, "localsearch probe: %v", err)
	}
	l.set("localsearch.optimize_s", d.Seconds())
	l.set("obs.snapshot_us", meanMicros(20, func() { obs.Default.Snapshot() }))
	return r, rec.spans, nil
}

// runTraced measures one workload's layers. Its length does not depend on
// -seconds: a reference op, its replay, and the probes.
func runTraced(workload string, seed int64) (*result, []span, error) {
	switch workload {
	case coldGeant, scaleBA42:
		return traceCold(coldWorkloadByName(workload), seed)
	case onlineNSF:
		return traceOnline(seed)
	case sweepGolden:
		return traceSweep(seed)
	}
	return nil, nil, fmt.Errorf("unknown workload %q", workload)
}
