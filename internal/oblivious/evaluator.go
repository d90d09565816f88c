// Package oblivious implements the oblivious-performance machinery of the
// paper: evaluating PERF(φ, D) — the worst-case ratio between a routing's
// maximum link utilization and the demands-aware optimum within the same
// DAGs (§III, §VI) — and COYOTE's adversarial optimization loop that
// couples the worst-case-demand finder with the GP-style splitting-ratio
// optimizer (§V-C, Appendix C).
//
// Two adversaries are provided, both bounding OPTDAG from below by the
// dual-length tables of earlier solves (DESIGN.md §2.5). The fast one
// normalizes only the box corners that can be among the k worst, screening
// single-pair matrices (Theorem 4) by DAG max-flow; the exact one searches
// the whole box by cutting planes, in place of Appendix C's slave LP.
//
// The evaluator is concurrent end-to-end (DESIGN.md §4): coefficient
// extraction, the single-pair screen, corner-adversary sampling, candidate
// normalization, and per-destination DAG flow propagation all fan out
// across a worker pool sized by EvalConfig.Workers, with flow buffers
// recycled through sync.Pool. Every parallel stage writes index-addressed
// slots and reduces serially in index order, and corner sampling derives
// each corner from (Seed, call sequence, sample index) rather than from a
// shared RNG stream, so results for a fixed Seed are bit-identical for any
// worker count.
package oblivious

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/maxflow"
	"github.com/coyote-te/coyote/internal/mcf"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/par"
	"github.com/coyote-te/coyote/internal/pdrouting"
)

// DefaultExactNodeLimit is the exact/FPTAS crossover: OPTDAG uses the
// sparse revised-simplex LP up to this many nodes and the Garg–Könemann
// FPTAS beyond it. The value was set by benchmark (EXPERIMENTS.md,
// "Exact vs FPTAS crossover"): with the sparse core the exact LP beats the
// eps=0.1 FPTAS on every corpus topology (≤ 33 nodes) and on ~40-node
// generated WANs, and loses from ~48 nodes up. The dense-tableau core this
// replaced capped the limit at 18.
const DefaultExactNodeLimit = 40

// EvalConfig tunes the evaluator.
type EvalConfig struct {
	Eps            float64 // FPTAS accuracy for OPTDAG on large instances (default 0.1)
	Samples        int     // random box corners per evaluation (default 8)
	Seed           int64   // seed for corner sampling
	ExactNodeLimit int     // use the exact LP for OPTDAG when NumNodes ≤ this (default DefaultExactNodeLimit)
	Workers        int     // worker-pool size (≤ 0 = GOMAXPROCS); never changes results
}

func (c EvalConfig) withDefaults() EvalConfig {
	if c.Eps <= 0 {
		c.Eps = 0.1
	}
	if c.Samples <= 0 {
		c.Samples = 8
	}
	if c.ExactNodeLimit <= 0 {
		c.ExactNodeLimit = DefaultExactNodeLimit
	}
	return c
}

// Evaluator computes worst-case performance ratios of routings over a fixed
// uncertainty set and fixed per-destination DAGs. It caches OPTDAG values
// (which depend only on the demand matrix and DAGs, not the routing) and
// per-pair DAG max-flows, so repeated evaluations inside the adversarial
// loop are cheap. Evaluator is safe for concurrent use; a serialized
// sequence of calls is reproducible for a fixed Seed regardless of
// EvalConfig.Workers.
type Evaluator struct {
	G    *graph.Graph
	DAGs []*dagx.DAG
	Box  *demand.Box
	cfg  EvalConfig

	cache *evalCache // OPTDAG and max-flow caches, shareable across boxes

	seq     atomic.Uint64 // PerfTop call sequence; varies corner samples across calls
	edgeBuf *par.Pool     // pooled per-edge flow buffers (len NumEdges)
	nodeBuf *par.Pool     // pooled per-node inflow buffers (len NumNodes)
}

// evalCache holds the values that depend only on (graph, DAGs) — OPTDAG
// normalizations, per-pair DAG max-flows, idle exact-LP models, the ring of
// dual-length distance tables, and the FPTAS index (DESIGN.md §12) — so
// evaluators over the same topology but different uncertainty boxes (the
// online controller's demand updates, via WithBox) can share them.
type evalCache struct {
	mu  sync.Mutex
	opt map[uint64]float64
	mf  map[[2]graph.NodeID]float64
	// models is the free list of idle exact min-MLU models, oldest first
	// (DESIGN.md §4). A solve takes the one shaped for its matrix — or
	// builds one — and puts it back, so concurrent normalizations each hold
	// their own instance.
	models []*mcf.MinMLUModel

	// bounds holds the dual certificates of recent normalizations as
	// distance tables; PerfTop bounds its candidates with them before it
	// solves any (DESIGN.md §2.5). Every fresh solve, OptDAG's included,
	// feeds it.
	bounds boundRing
	// scratch recycles PerfTop's per-call working set (*advScratch).
	scratch sync.Pool

	approxOnce sync.Once
	approx     *mcf.Approx // built on the first FPTAS normalization
}

// fptas returns the shared FPTAS index for (g, dags), building it on first
// use: evaluators at or below the exact node limit never pay for it.
func (c *evalCache) fptas(g *graph.Graph, dags []*dagx.DAG) *mcf.Approx {
	c.approxOnce.Do(func() { c.approx = mcf.NewApprox(g, dags) })
	return c.approx
}

// maxIdleModels bounds the free list of exact models: enough for every
// worker of a margin box's single shape and for the handful of active sets an
// oblivious box's corners cycle through; past it the oldest idle model goes.
const maxIdleModels = 8

// takeModel hands out an exact min-MLU model shaped for D's active
// destination set, from the free list when an idle one fits. The match is
// exact, never a superset: a larger formulation would reach the same optimum
// along a different pivot path.
func (c *evalCache) takeModel(g *graph.Graph, dags []*dagx.DAG, D *demand.Matrix) *mcf.MinMLUModel {
	c.mu.Lock()
	for i, mm := range c.models {
		if mm.ShapedFor(D) {
			c.models = slices.Delete(c.models, i, i+1)
			c.mu.Unlock()
			return mm
		}
	}
	c.mu.Unlock()
	return mcf.NewMinMLUModel(g, dags, D)
}

// putModel returns a model to the free list, dropping the oldest idle one
// when the list is full.
func (c *evalCache) putModel(mm *mcf.MinMLUModel) {
	c.mu.Lock()
	if len(c.models) == maxIdleModels {
		c.models = slices.Delete(c.models, 0, 1)
	}
	c.models = append(c.models, mm)
	c.mu.Unlock()
}

// NewEvaluator builds an evaluator for the given DAGs and uncertainty box.
func NewEvaluator(g *graph.Graph, dags []*dagx.DAG, box *demand.Box, cfg EvalConfig) *Evaluator {
	cfg = cfg.withDefaults()
	return &Evaluator{
		G:    g,
		DAGs: dags,
		Box:  box,
		cfg:  cfg,
		cache: &evalCache{
			opt:     make(map[uint64]float64),
			mf:      make(map[[2]graph.NodeID]float64),
			scratch: sync.Pool{New: func() any { return new(advScratch) }},
		},
		edgeBuf: par.NewPool(g.NumEdges()),
		nodeBuf: par.NewPool(g.NumNodes()),
	}
}

// WithBox derives an evaluator for a different uncertainty box over the
// same graph and DAGs. The OPTDAG and max-flow caches — which are
// box-independent — and the flow-buffer pools are shared with the
// receiver, so a session that drifts its demand bounds keeps every
// normalization it already paid for. The derived evaluator starts a fresh
// corner-sampling sequence.
func (ev *Evaluator) WithBox(box *demand.Box) *Evaluator {
	return &Evaluator{
		G:       ev.G,
		DAGs:    ev.DAGs,
		Box:     box,
		cfg:     ev.cfg,
		cache:   ev.cache,
		edgeBuf: ev.edgeBuf,
		nodeBuf: ev.nodeBuf,
	}
}

// OptDAG returns the demands-aware optimal utilization of D within the
// evaluator's DAGs (cached; exact LP up to ExactNodeLimit nodes, FPTAS
// otherwise). The value is a function of D alone: an exact solve starts from
// the crash basis of D (mcf.MinMLUModel.SolveMLU), never from an earlier
// solve's vertex. Use it from serialized contexts (the adversarial loop's
// scenario accumulation, sessions): its certificate joins the bound ring
// that PerfTop prunes with, so a concurrent call would make PerfTop's solve
// count depend on timing.
func (ev *Evaluator) OptDAG(D *demand.Matrix) float64 {
	h := hashMatrix(D)
	if v, ok := ev.cache.lookup(h); ok {
		return v
	}
	z := ev.edgeBuf.Get()
	v, certified := ev.solveOptDAG(context.Background(), D, z)
	ev.cache.store(h, v)
	if certified {
		ev.cache.bounds.add(ev.G, ev.DAGs, z, D, v, ev.exact())
	}
	ev.edgeBuf.Put(z)
	return v
}

// exact reports whether OPTDAG runs on the exact LP (FPTAS otherwise).
func (ev *Evaluator) exact() bool { return ev.G.NumNodes() <= ev.cfg.ExactNodeLimit }

// lookup returns the cached OPTDAG value of the matrix with fingerprint h.
func (c *evalCache) lookup(h uint64) (float64, bool) {
	c.mu.Lock()
	v, ok := c.opt[h]
	c.mu.Unlock()
	return v, ok
}

// store caches an OPTDAG value under the matrix fingerprint h.
func (c *evalCache) store(h uint64, v float64) {
	c.mu.Lock()
	c.opt[h] = v
	c.mu.Unlock()
}

// solveOptDAG normalizes D afresh: +Inf when D cannot be routed within the
// DAGs. It reports whether z (one entry per edge) received the solve's dual
// certificate — edge lengths ℓ ≥ 0 with Σ ℓ_e·c_e = 1, from the
// capacity-row duals of the LP or the final Garg–Könemann lengths. An exact
// solve records its lp.solve span under ctx.
func (ev *Evaluator) solveOptDAG(ctx context.Context, D *demand.Matrix, z []float64) (v float64, certified bool) {
	var err error
	switch {
	case D.Total() == 0:
		// No demand: utilization 0, no solve.
		return 0, false
	case ev.exact():
		v, certified, err = ev.solveExact(ctx, D, z)
	default:
		v, err = ev.cache.fptas(ev.G, ev.DAGs).MLU(D, ev.cfg.Eps, z)
		certified = err == nil
	}
	if err != nil {
		return math.Inf(1), false
	}
	return v, certified
}

// solveExact is the exact branch of solveOptDAG, which PerfExact's
// separation runs whatever ExactNodeLimit says.
func (ev *Evaluator) solveExact(ctx context.Context, D *demand.Matrix, z []float64) (v float64, certified bool, err error) {
	mm := ev.cache.takeModel(ev.G, ev.DAGs, D)
	defer ev.cache.putModel(mm)
	if err = mm.SetDemands(D); err != nil {
		return 0, false, err
	}
	v, err = mm.SolveMLU(ctx)
	return v, err == nil && mm.Lengths(z), err
}

// pairMaxFlow returns the maximum s→t flow within DAG_t (cached). The
// optimal utilization of the single-pair demand (s,t,d) within the DAGs is
// exactly d/pairMaxFlow(s,t).
func (ev *Evaluator) pairMaxFlow(s, t graph.NodeID) float64 {
	key := [2]graph.NodeID{s, t}
	c := ev.cache
	c.mu.Lock()
	if v, ok := c.mf[key]; ok {
		c.mu.Unlock()
		return v
	}
	c.mu.Unlock()
	net := maxflow.NewNetwork(ev.G.NumNodes())
	for _, e := range ev.G.Edges() {
		if ev.DAGs[t].Member[e.ID] {
			net.AddArc(int(e.From), int(e.To), e.Capacity)
		}
	}
	v := net.MaxFlow(int(s), int(t))
	c.mu.Lock()
	c.mf[key] = v
	c.mu.Unlock()
	return v
}

// MaxUtilization is MxLU(r, D) computed with the per-destination DAG flow
// propagation fanned across the evaluator's worker pool and its pooled
// flow buffers; bit-identical to r.MaxUtilization for any worker count.
func (ev *Evaluator) MaxUtilization(r *pdrouting.Routing, D *demand.Matrix) float64 {
	return r.ParallelMaxUtilization(D, ev.cfg.Workers, ev.edgeBuf, ev.nodeBuf)
}

// Result reports a worst-case evaluation.
type Result struct {
	Ratio   float64        // PERF estimate: max over adversarial DMs of MxLU/OPTDAG
	WorstDM *demand.Matrix // a demand matrix attaining Ratio
	MxLU    float64        // the routing's utilization on WorstDM
	Norm    float64        // OPTDAG(WorstDM)
}

// Perf estimates PERF(r, Box): the worst normalized utilization of the
// routing across the uncertainty set. The adversary combines per-link box
// corners, random corners, the box extremes, and all single-pair demand
// matrices (evaluated in closed form).
func (ev *Evaluator) Perf(r *pdrouting.Routing) Result {
	top := ev.PerfTop(r, 1)
	return top[0]
}

// PerfTop runs the same adversary as Perf but returns the k worst distinct
// demand scenarios found (best first). The adversarial optimization loop
// feeds several of them into the finite scenario set at once, which
// converges in far fewer outer rounds than one-at-a-time accumulation.
func (ev *Evaluator) PerfTop(r *pdrouting.Routing, k int) []Result {
	return ev.PerfTopCtx(context.Background(), r, k)
}

// PerfTopCtx is PerfTop with tracing: when ctx carries an obs.Tracer the
// adversary records one oblivious.adversary span covering the whole call,
// with what became of the candidates — cached, solved, pruned — and the
// number of waves as attributes, and under it the lp.solve span of each exact
// normalization. Nothing observed changes the verdict.
//
// The adversary is bound-ordered: it returns exactly the k best of all its
// candidates but normalizes only those whose dual-length upper bound reaches
// the k-th best ratio established so far (DESIGN.md §2.5).
func (ev *Evaluator) PerfTopCtx(ctx context.Context, r *pdrouting.Routing, k int) []Result {
	ctx, span := obs.StartSpan(ctx, "oblivious.adversary")
	defer span.End()
	workers := ev.cfg.Workers
	singles, corners := ev.adversaryInputs(r, ev.seq.Add(1))

	// Deduplicate serially in a fixed order.
	sc := ev.cache.scratch.Get().(*advScratch)
	defer ev.cache.scratch.Put(sc)
	cands := sc.cands[:0]
	seen := make(map[uint64]bool)
	for _, D := range corners {
		if D.Total() <= 0 {
			continue
		}
		h := hashMatrix(D)
		if !seen[h] {
			seen[h] = true
			cands = append(cands, candidate{D: D, hash: h})
		}
	}
	sc.cands = cands

	// The routing's utilization on every candidate, once: it is the
	// numerator of the ratio and of the bound. The candidate fan-out already
	// saturates the pool; a full-width inner fan-out here would square the
	// goroutine count for no throughput. The serial propagation still reuses
	// pooled buffers and is bit-identical at any width.
	par.For(workers, len(cands), func(i int) {
		cands[i].mxlu = r.ParallelMaxUtilization(cands[i].D, 1, ev.edgeBuf, ev.nodeBuf)
	})

	// The bar τ is the k-th best exact ratio known so far: the single-pair
	// results and the candidates normalized by an earlier call set it before
	// anything is solved. Every other candidate gets an upper bound on its
	// ratio from the ring of dual certificates — weak duality bounds OPTDAG
	// from below, hence mxlu/OPTDAG from above — and only a candidate whose
	// bound reaches τ is ever solved (DESIGN.md §2.5).
	if k < 1 {
		k = 1
	}
	top := sc.top[:0]
	for _, sr := range singles {
		top = pushTop(top, k, sr.Ratio)
	}
	pending := sc.pending[:0]
	for i := range cands {
		c := &cands[i]
		if c.norm, c.known = ev.cache.lookup(c.hash); c.known {
			if c.valid() {
				top = pushTop(top, k, c.mxlu/c.norm)
			}
			continue
		}
		c.lb = ev.cache.bounds.bound(c.D, 0)
		pending = append(pending, int32(i))
	}
	sc.pending = pending
	cached := len(cands) - len(pending)
	pos := ev.cache.bounds.position() // the survivors' bounds are current to here

	// Solve in descending bound order, boundWave candidates at a time; after
	// each wave the fresh certificates join the ring in candidate order and
	// tighten the survivors' bounds. Wave membership depends only on bounds
	// and τ, never on the worker count or on scheduling.
	exact := ev.exact()
	var wave [boundWave]waveSlot
	waves := 0
	for len(pending) > 0 {
		slices.SortFunc(pending, func(a, b int32) int {
			return cmp.Or(cmp.Compare(cands[b].upper(), cands[a].upper()), cmp.Compare(a, b))
		})
		tau := math.Inf(-1)
		if len(top) == k {
			tau = top[k-1]
		}
		nw := 0
		for nw < boundWave && nw < len(pending) && cands[pending[nw]].upper()*(1+1e-9) >= tau {
			nw++
		}
		if nw == 0 {
			break // nothing left can reach the top k
		}
		waves++
		// Index order within the wave: the order results and certificates
		// are taken in.
		slices.Sort(pending[:nw])
		par.For(workers, nw, func(j int) {
			c := &cands[pending[j]]
			w := &wave[j]
			w.z = ev.edgeBuf.Get()
			c.norm, w.certified = ev.solveOptDAG(ctx, c.D, w.z)
		})
		for j := 0; j < nw; j++ {
			c := &cands[pending[j]]
			w := &wave[j]
			c.known = true
			ev.cache.store(c.hash, c.norm)
			if c.valid() {
				top = pushTop(top, k, c.mxlu/c.norm)
			}
			if w.certified {
				ev.cache.bounds.add(ev.G, ev.DAGs, w.z, c.D, c.norm, exact)
			}
			ev.edgeBuf.Put(w.z)
			*w = waveSlot{}
		}
		pending = pending[nw:]
		for _, i := range pending {
			c := &cands[i]
			c.lb = math.Max(c.lb, ev.cache.bounds.bound(c.D, pos))
		}
		pos = ev.cache.bounds.position()
	}
	pruned := len(pending)
	solved := len(cands) - cached - pruned
	sc.top = top

	mCandCached.Add(uint64(cached))
	mCandSolved.Add(uint64(solved))
	mCandPruned.Add(uint64(pruned))
	span.Attr("k", k).Attr("candidates", len(cands)).Attr("singles", len(singles)).
		Attr("cached", cached).Attr("solved", solved).Attr("pruned", pruned).Attr("waves", waves)

	all := make([]Result, 0, len(cands)+len(singles))
	all = append(all, singles...)
	for i := range cands {
		if c := &cands[i]; c.known && c.valid() {
			all = append(all, Result{Ratio: c.mxlu / c.norm, WorstDM: c.D, MxLU: c.mxlu, Norm: c.norm})
		}
	}
	clear(cands) // drop the matrix references the pooled scratch would otherwise pin
	if len(all) == 0 {
		return []Result{{Ratio: math.Inf(-1)}}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Ratio > all[j].Ratio })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// adversaryInputs generates what the seq-th adversary call on r examines: the
// strongest single-pair results (closed form, oblivious boxes only) and the
// box corners, duplicates and empty matrices included.
func (ev *Evaluator) adversaryInputs(r *pdrouting.Routing, seq uint64) (singles []Result, corners []*demand.Matrix) {
	n := ev.G.NumNodes()
	nE := ev.G.NumEdges()
	workers := ev.cfg.Workers

	coeff := ev.loadCoeffs(r)

	// Single-pair adversary, exact and closed-form: for demand d on (s,t),
	// MxLU = d·max_e coeff[t][s][e]/c_e and OPTDAG = d/maxflow(s,t), so the
	// ratio is maxflow(s,t)·max_e coeff/c — independent of d. Single-pair
	// matrices belong to the box only when its lower bounds are all zero
	// (the oblivious sets); skip them otherwise.
	if ev.Box.Min.Total() == 0 {
		perSource := make([][]Result, n)
		par.For(workers, n, func(s int) {
			for t := 0; t < n; t++ {
				if s == t || ev.Box.Max.At(graph.NodeID(s), graph.NodeID(t)) <= 0 {
					continue
				}
				peak := 0.0
				for e := 0; e < nE; e++ {
					u := coeff[t][s][e] / ev.G.Edge(graph.EdgeID(e)).Capacity
					if u > peak {
						peak = u
					}
				}
				mf := ev.pairMaxFlow(graph.NodeID(s), graph.NodeID(t))
				if mf <= 0 {
					continue
				}
				d := ev.Box.Max.At(graph.NodeID(s), graph.NodeID(t))
				perSource[s] = append(perSource[s], Result{
					Ratio:   peak * mf,
					WorstDM: demand.SinglePair(n, graph.NodeID(s), graph.NodeID(t), d),
					MxLU:    peak * d,
					Norm:    d / mf,
				})
			}
		})
		for _, rs := range perSource {
			singles = append(singles, rs...)
		}
		// Keep the strongest few; they are candidates for the top-k set.
		sort.SliceStable(singles, func(i, j int) bool { return singles[i].Ratio > singles[j].Ratio })
		if len(singles) > 8 {
			singles = singles[:8]
		}
	}

	// Corner candidates: the box maximum, the geometric midpoint (≈ the
	// base matrix of a margin box), one corner per link maximizing that
	// link's load, and the random corners, generated into index-addressed
	// slots in parallel.
	corners = make([]*demand.Matrix, 2+nE+ev.cfg.Samples)
	corners[0] = ev.Box.Max.Clone()
	corners[1] = ev.Box.Midpoint()
	par.For(workers, nE, func(e int) {
		corners[2+e] = ev.Box.Corner(func(s, t graph.NodeID) bool {
			return coeff[t][s][e] > 1e-12
		})
	})
	par.For(workers, ev.cfg.Samples, func(i int) {
		corners[2+nE+i] = ev.randomCorner(seq, i)
	})
	return singles, corners
}

// loadCoeffs returns coeff[t][s][e], the load one unit of s→t demand puts
// on edge e: one independent propagation per destination.
func (ev *Evaluator) loadCoeffs(r *pdrouting.Routing) [][][]float64 {
	coeff := make([][][]float64, ev.G.NumNodes())
	par.For(ev.cfg.Workers, len(coeff), func(t int) { coeff[t] = r.LoadCoeffs(graph.NodeID(t)) })
	return coeff
}

// candidate is one deduplicated corner of an adversary call.
type candidate struct {
	D     *demand.Matrix
	hash  uint64
	mxlu  float64 // the routing's utilization on D
	norm  float64 // OPTDAG(D), once known
	known bool    // norm is in hand, cached or solved; a pruned candidate ends false
	lb    float64 // best lower bound on OPTDAG(D) so far: 0 = none, +Inf = unroutable
}

// valid reports whether the known normalization yields a ratio: a matrix
// that cannot be routed within the DAGs (norm +Inf) is dropped.
func (c *candidate) valid() bool { return c.norm > 0 && !math.IsInf(c.norm, 1) }

// upper bounds the candidate's ratio from above. Without a positive lower
// bound on OPTDAG it is +Inf — such a candidate is never pruned — and a
// matrix with demand on a pair no DAG path serves (lb +Inf) gets 0: solving
// it could only report it unroutable, and it is dropped either way.
func (c *candidate) upper() float64 {
	if c.lb <= 0 {
		return math.Inf(1)
	}
	return c.mxlu / c.lb
}

// waveSlot is what one solve of a wave hands back to the serial reduction.
type waveSlot struct {
	z         []float64
	certified bool
}

// advScratch is the per-call working set of PerfTop, recycled through
// evalCache.scratch so a steady-state call allocates none of it.
type advScratch struct {
	cands   []candidate
	pending []int32   // indices of candidates not yet solved, best bound first
	top     []float64 // the k best exact ratios so far, descending
}

// pushTop inserts ratio into the descending list of the k best.
func pushTop(top []float64, k int, ratio float64) []float64 {
	if len(top) == k {
		if ratio <= top[k-1] {
			return top
		}
		top = top[:k-1]
	}
	return slices.Insert(top, sort.Search(len(top), func(i int) bool { return top[i] < ratio }), ratio)
}

// randomCorner materializes the sample-th random box corner of the seq-th
// PerfTop call. Corner bits come from a counter-mode splitmix64 stream
// keyed on (Seed, seq, sample), so every (call, sample) pair sees an
// independent corner and the choice is independent of which worker runs it.
func (ev *Evaluator) randomCorner(seq uint64, sample int) *demand.Matrix {
	state := splitmix64(uint64(ev.cfg.Seed)) ^ splitmix64(seq<<20^uint64(sample))
	var word uint64
	bits := 0
	ctr := uint64(0)
	return ev.Box.Corner(func(s, t graph.NodeID) bool {
		if bits == 0 {
			ctr++
			word = splitmix64(state + ctr)
			bits = 64
		}
		b := word&1 == 1
		word >>= 1
		bits--
		return b
	})
}

// splitmix64 is the SplitMix64 finalizer — a fast, well-mixed hash used as
// a counter-mode PRNG for deterministic corner sampling.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashMatrix fingerprints a demand matrix for caching and deduplication:
// 64-bit FNV-1a over the little-endian bytes of every entry's Float64bits —
// the value hash/fnv produces, computed inline (TestHashMatrixIsFNV1a).
func hashMatrix(D *demand.Matrix) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range D.D {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h ^= bits & 0xff
			h *= prime64
			bits >>= 8
		}
	}
	return h
}
