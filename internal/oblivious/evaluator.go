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
// The adversary runs on its caller's goroutine (DESIGN.md §4): one flat
// load-coefficient table feeds the single-pair screen and the per-link
// corners, the candidates' MxLU are a loop in index order, and their
// normalizations run best-first, one at a time. Corner sampling
// derives each corner from (Seed, call sequence, sample index) rather than
// from a shared RNG stream, so a call's result is a function of its inputs
// and the evaluator's caches. Concurrent callers are safe: the caches sit
// behind mutexes.
package oblivious

import (
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
	Workers        int     // worker-pool size of the optimizer's per-destination sweeps (≤ 0 = GOMAXPROCS); never changes results
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
// sequence of calls is reproducible for a fixed Seed.
type Evaluator struct {
	G    *graph.Graph
	DAGs []*dagx.DAG
	Box  *demand.Box
	cfg  EvalConfig

	cache *evalCache // OPTDAG and max-flow caches, shareable across boxes

	seq atomic.Uint64 // PerfTop call sequence; varies corner samples across calls
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
	// builds one — and puts it back, so concurrent callers' normalizations
	// each hold their own instance.
	models []*mcf.MinMLUModel

	// bounds holds the dual certificates of recent normalizations as
	// distance tables; PerfTop bounds its candidates with them before it
	// solves any (DESIGN.md §2.5). Every fresh solve, OptDAG's included,
	// feeds it.
	bounds boundRing
	// scratch recycles the per-call working set of PerfTop and OptDAG
	// (*advScratch).
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

// maxIdleModels bounds the free list of exact models: enough for concurrent
// callers on a margin box's single shape and for the handful of active sets
// an oblivious box's corners cycle through; past it the oldest idle model
// goes.
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
	}
}

// WithBox derives an evaluator for a different uncertainty box over the
// same graph and DAGs. The OPTDAG and max-flow caches — which are
// box-independent — are shared with the receiver, so a session that drifts
// its demand bounds keeps every normalization it already paid for. The
// derived evaluator starts a fresh corner-sampling sequence.
func (ev *Evaluator) WithBox(box *demand.Box) *Evaluator {
	return &Evaluator{G: ev.G, DAGs: ev.DAGs, Box: box, cfg: ev.cfg, cache: ev.cache}
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
	sc := ev.cache.scratch.Get().(*advScratch)
	defer ev.cache.scratch.Put(sc)
	v, certified := ev.solveOptDAG(context.Background(), D, sc.lengths(ev.G.NumEdges()))
	ev.cache.store(h, v)
	if certified {
		ev.cache.bounds.add(ev.G, ev.DAGs, sc.z, D, v, ev.exact())
	}
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

// Result reports a worst-case evaluation.
type Result struct {
	Ratio   float64        // PERF estimate: max over adversarial DMs of MxLU/OPTDAG
	WorstDM *demand.Matrix // a demand matrix attaining Ratio
	MxLU    float64        // the routing's utilization on WorstDM
	Norm    float64        // OPTDAG(WorstDM)
}

// Perf estimates PERF(r, Box): the worst normalized utilization of the
// routing across the uncertainty set. The adversary combines per-link box
// corners, random corners, the box maximum and midpoint, and — when
// Box.Min is all zero, so single-pair matrices lie in the box — the 8
// strongest single-pair demand matrices (evaluated in closed form).
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
// with what became of the candidates — cached, solved, pruned — as
// attributes, and under it the lp.solve span of each exact normalization.
// Nothing observed changes the verdict.
//
// The adversary is bound-ordered: it returns exactly the k best of all its
// candidates but normalizes only those whose dual-length upper bound reaches
// the k-th best ratio established so far (DESIGN.md §2.5).
func (ev *Evaluator) PerfTopCtx(ctx context.Context, r *pdrouting.Routing, k int) []Result {
	ctx, span := obs.StartSpan(ctx, "oblivious.adversary")
	defer span.End()
	sc := ev.cache.scratch.Get().(*advScratch)
	defer ev.cache.scratch.Put(sc)
	sc.coeff = r.LoadCoeffs(sc.coeff)
	singles, corners := ev.adversaryInputs(sc.coeff, ev.seq.Add(1))

	// Deduplicate serially in a fixed order.
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
	// numerator of the ratio and of the bound.
	for i := range cands {
		cands[i].mxlu = r.MaxUtilization(cands[i].D)
	}

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
	ring := &ev.cache.bounds
	pos := ring.position() // a survivor whose bound is current to less has tables to see
	pending := sc.pending[:0]
	for i := range cands {
		c := &cands[i]
		var ok bool
		if c.norm, ok = ev.cache.lookup(c.hash); ok {
			if c.valid() {
				top = pushTop(top, k, c.mxlu/c.norm)
			}
			continue
		}
		c.lb, c.seen = ring.bound(c.D, 0)
		pending = append(pending, int32(i))
	}
	sc.pending = pending
	cached := len(cands) - len(pending)

	// Solve best-first: the pending candidate with the highest bound, the
	// lowest index among equals, until no bound reaches τ. Each certificate
	// joins the ring as soon as its solve returns. Re-bounding is lazy: a
	// bound only rises as it sees newer tables, so a stale upper() only
	// falls. The argmax is refreshed until it is fresh, and then it is the
	// candidate that re-bounding every survivor after every solve would
	// pick (DESIGN.md §2.5).
	exact := ev.exact()
	z := sc.lengths(ev.G.NumEdges())
	for len(pending) > 0 {
		b := 0
		for j, i := range pending {
			if cands[i].upper() > cands[pending[b]].upper() {
				b = j
			}
		}
		c := &cands[pending[b]]
		if c.seen < pos {
			c.rebound(ring)
			continue
		}
		if len(top) == k && c.upper()*(1+1e-9) < top[k-1] {
			break // nothing left can reach the top k
		}
		pending = slices.Delete(pending, b, b+1)
		var certified bool
		c.norm, certified = ev.solveOptDAG(ctx, c.D, z)
		ev.cache.store(c.hash, c.norm)
		if c.valid() {
			top = pushTop(top, k, c.mxlu/c.norm)
		}
		if certified {
			// The add overwrites table pos−boundRingSize once the ring is
			// full: a survivor that has not seen it sees it now.
			for _, i := range pending {
				if cands[i].seen+boundRingSize <= pos {
					cands[i].rebound(ring)
				}
			}
			ring.add(ev.G, ev.DAGs, z, c.D, c.norm, exact)
			pos = ring.position()
		}
	}
	pruned := len(pending)
	solved := len(cands) - cached - pruned
	sc.top = top

	mCandCached.Add(uint64(cached))
	mCandSolved.Add(uint64(solved))
	mCandPruned.Add(uint64(pruned))
	span.Attr("k", k).Attr("candidates", len(cands)).Attr("singles", len(singles)).
		Attr("cached", cached).Attr("solved", solved).Attr("pruned", pruned)

	all := make([]Result, 0, len(cands)+len(singles))
	all = append(all, singles...)
	for i := range cands {
		if c := &cands[i]; c.valid() {
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

// adversaryInputs generates what the seq-th adversary call examines, given
// the routing's load-coefficient table C (Routing.LoadCoeffs): the strongest
// single-pair results (closed form, oblivious boxes only) and the box
// corners, duplicates and empty matrices included.
func (ev *Evaluator) adversaryInputs(C []float64, seq uint64) (singles []Result, corners []*demand.Matrix) {
	n := ev.G.NumNodes()
	nE := ev.G.NumEdges()

	// Single-pair adversary, exact and closed-form: for demand d on (s,t),
	// MxLU = d·max_e C[e·n²+s·n+t]/c_e and OPTDAG = d/maxflow(s,t), so the
	// ratio is maxflow(s,t)·max_e C/c — independent of d. Single-pair
	// matrices belong to the box only when its lower bounds are all zero
	// (the oblivious sets); skip them otherwise. Only the strongest few are
	// kept, as candidates for the top-k set: the pairs are ranked by ratio
	// (the earlier pair first among equals) as they come, and only the kept
	// ones get a matrix.
	if ev.Box.Min.Total() == 0 {
		type single struct {
			Result
			s, t graph.NodeID
		}
		var best [8]single
		kept := 0
		for s := 0; s < n; s++ {
			for t := 0; t < n; t++ {
				if s == t || ev.Box.Max.At(graph.NodeID(s), graph.NodeID(t)) <= 0 {
					continue
				}
				peak := 0.0
				for e := 0; e < nE; e++ {
					u := C[e*n*n+s*n+t] / ev.G.Edge(graph.EdgeID(e)).Capacity
					if u > peak {
						peak = u
					}
				}
				mf := ev.pairMaxFlow(graph.NodeID(s), graph.NodeID(t))
				if mf <= 0 {
					continue
				}
				d := ev.Box.Max.At(graph.NodeID(s), graph.NodeID(t))
				at := kept
				for at > 0 && best[at-1].Ratio < peak*mf {
					at--
				}
				if at == len(best) {
					continue
				}
				kept = min(kept+1, len(best))
				copy(best[at+1:kept], best[at:kept-1])
				best[at] = single{Result{Ratio: peak * mf, MxLU: peak * d, Norm: d / mf}, graph.NodeID(s), graph.NodeID(t)}
			}
		}
		singles = make([]Result, kept)
		for i, b := range best[:kept] {
			b.WorstDM = demand.SinglePair(n, b.s, b.t, ev.Box.Max.At(b.s, b.t))
			singles[i] = b.Result
		}
	}

	// Corner candidates: the box maximum, the geometric midpoint (≈ the
	// base matrix of a margin box), one corner per link maximizing that
	// link's load, and the random corners.
	corners = make([]*demand.Matrix, 0, 2+nE+ev.cfg.Samples)
	corners = append(corners, ev.Box.Max.Clone(), ev.Box.Midpoint())
	for e := 0; e < nE; e++ {
		corners = append(corners, ev.Box.Corner(func(s, t graph.NodeID) bool {
			return C[e*n*n+int(s)*n+int(t)] > 1e-12
		}))
	}
	for i := 0; i < ev.cfg.Samples; i++ {
		corners = append(corners, ev.randomCorner(seq, i))
	}
	return singles, corners
}

// candidate is one deduplicated corner of an adversary call.
type candidate struct {
	D    *demand.Matrix
	hash uint64
	mxlu float64 // the routing's utilization on D
	norm float64 // OPTDAG(D), once cached or solved; a pruned candidate keeps 0
	lb   float64 // best lower bound on OPTDAG(D) so far: 0 = none, +Inf = unroutable
	seen uint64  // the ring position lb is current to
}

// rebound raises lb by the tables added to the ring since the candidate
// last looked.
func (c *candidate) rebound(ring *boundRing) {
	var lb float64
	lb, c.seen = ring.bound(c.D, c.seen)
	c.lb = math.Max(c.lb, lb)
}

// valid reports whether the normalization yields a ratio: a pruned
// candidate (norm 0) and a matrix that cannot be routed within the DAGs
// (norm +Inf) are dropped.
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

// advScratch is the per-call working set of PerfTop and OptDAG, recycled
// through evalCache.scratch so a steady-state call allocates none of it.
type advScratch struct {
	cands   []candidate
	pending []int32   // indices of candidates not yet solved, in index order
	top     []float64 // the k best exact ratios so far, descending
	z       []float64 // the dual lengths of the latest solve, one per edge
	coeff   []float64 // the routing's load coefficients (Routing.LoadCoeffs)
}

// lengths returns the scratch length vector, sized for m edges.
func (sc *advScratch) lengths(m int) []float64 {
	if len(sc.z) != m {
		sc.z = make([]float64, m)
	}
	return sc.z
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
// independent corner.
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
