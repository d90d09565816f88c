// Package gpopt optimizes in-DAG traffic splitting ratios, implementing the
// geometric-programming approach of §V-C and Appendix C of the paper.
//
// Following the paper, the optimizer works with log-ratio variables
// (φ̃ = log φ). The per-destination simplex constraints Σφ = 1 are enforced
// exactly by a softmax reparameterization — precisely the normalized
// monomial family that each condensation step of the paper's iterative
// MLGP produces. For a fixed demand matrix the per-link utilization is a
// posynomial in φ, hence log-convex in φ̃; the worst-case objective over a
// finite scenario set is smoothed with a temperature-annealed log-sum-exp
// ("SmoothMax") and minimized with Adam. The paper's outer machinery —
// growing the finite scenario set with worst-case demand matrices — lives
// in package oblivious.
package gpopt

import (
	"context"
	"math"
	"time"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/geom"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/par"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/spf"
)

// Scenario is one demand matrix of the finite optimization set, together
// with its normalization constant (the demands-aware optimum within the
// DAGs, OPTDAG(D)); the optimizer minimizes max over scenarios and links of
// load/(capacity·Norm).
type Scenario struct {
	Cols [][]float64 // Cols[t][v] = demand from v toward destination t (nil column: no demand)
	Norm float64     // positive normalization constant (OPTDAG of the matrix)
}

// NewScenario precomputes per-destination demand columns for D.
func NewScenario(g *graph.Graph, D *demand.Matrix, norm float64) Scenario {
	n := g.NumNodes()
	s := Scenario{Cols: make([][]float64, n), Norm: norm}
	for t := 0; t < n; t++ {
		col := D.ToDestination(graph.NodeID(t))
		for _, d := range col {
			if d > 0 {
				s.Cols[t] = col
				break
			}
		}
	}
	return s
}

// Config is what a caller chooses per optimizer: how long to run and on how
// many workers.
type Config struct {
	Iters   int // gradient steps per Run (default 400)
	Workers int // worker-pool size for the per-(scenario, destination) passes (≤ 0 = GOMAXPROCS); never changes results
}

// The optimizer's tuning; fixed, not configuration.
const (
	lr        = 0.05 // Adam learning rate
	tauStart  = 0.25 // initial smooth-max temperature
	tauEnd    = 0.02 // final temperature
	initSPLog = 2    // log-ratio head start of shortest-path edges over augmented ones
)

func (c Config) withDefaults() Config {
	if c.Iters <= 0 {
		c.Iters = 400
	}
	return c
}

// Optimizer carries the log-space parameters θ (one per destination and DAG
// edge) and Adam state, allowing warm-started re-optimization as the
// adversarial scenario set grows.
//
// Each gradient step fans its per-(scenario, destination) forward and
// backward flow propagations, and its per-destination softmax/Adam
// updates, across a worker pool of Config.Workers goroutines (DESIGN.md
// §4). All cross-leaf floating-point reductions happen serially in a fixed
// order, so a Run's result is bit-identical for any worker count.
type Optimizer struct {
	g    *graph.Graph
	dags []*dagx.DAG
	cfg  Config

	// θ and the Adam moments live in one flat arena (3·n·nE float64s,
	// allocated once per topology); theta/m/v are row views into it, so all
	// existing per-destination indexing — including the warm-state
	// export/import in warm.go — works unchanged while the parameter state
	// stays a single contiguous block.
	paramArena []float64
	theta      [][]float64 // theta[t][e]; only DAG member edges are meaningful
	m, v       [][]float64 // Adam moments
	step       int

	// outsOf[t][u] caches DAG out-edge lists as CSR-style views into one
	// shared arena (no per-(t,u) slice headers on the heap); headsOf[t][u][k]
	// is the head node of edge outsOf[t][u][k], in a parallel arena, so the
	// propagation loops never copy a graph.Edge.
	outsOf     [][][]graph.EdgeID
	outsArena  []graph.EdgeID
	headsOf    [][][]graph.NodeID
	headsArena []graph.NodeID

	// scratch holds every buffer Run and materialize need, sized once per
	// topology (and grown only when the scenario set does), so steady-state
	// gradient iterations allocate nothing (TestRunStepAllocs).
	scratch runScratch
}

// task is one forward/backward work unit: a (scenario, destination) pair
// with demand.
type task struct{ si, t int }

// runScratch is the reusable workspace of Run. The parts that depend only
// on the topology (per-destination φ/gradient rows, per-destination
// backward buffers, softmax scratch) are allocated in New; the parts that
// scale with the scenario set (task list, per-task load/inflow rows,
// per-scenario totals and utilizations) are grown by prepare on the first
// Run that sees a larger set and reused afterwards. Nothing in here ever
// escapes the optimizer (DESIGN.md §12: scratch never escapes,
// instrumentation never touches the numeric path).
type runScratch struct {
	phi, grad, gradT [][]float64 // row views, n × nE, backed by gradArena
	gradArena        []float64

	logits, probs [][]float64 // per-destination softmax scratch, n × maxOutDeg

	destGIn [][]float64 // per-destination backward buffers, n × n

	tasks      []task
	byDest     [][]int     // byDest[t] = indices into tasks, scenario order
	taskLoads  [][]float64 // row views, len(tasks) × nE
	taskInflow [][]float64 // row views, len(tasks) × n
	scLoads    [][]float64 // row views, len(scenarios) × nE
	taskArena  []float64   // backs taskLoads + taskInflow
	scArena    []float64   // backs scLoads
	utils      []float64   // len(scenarios)·nE; utilization of edge e in scenario si at index si·nE+e
	scaled     []float64   // utils/τ, softmax input
	w          []float64   // smooth-max weights, softmax output
	wNorm      []float64   // w/(capacity·Norm): the upstream load gradient of edge e in scenario si at si·nE+e

	// The par.For leaf closures are built once in New and reused every
	// iteration (a closure passed to For escapes to its worker goroutines,
	// so a fresh literal per call would heap-allocate). Iteration-varying
	// state flows through the fields below instead of captures.
	scenarios     []Scenario // current Run's scenario set (set by prepare)
	bc1, bc2      float64    // Adam bias corrections for the current step
	fnMaterialize func(t int)
	fnForward     func(i int)
	fnBackward    func(t int)
	fnAdam        func(t int)
}

// New creates an optimizer over the given DAGs. Initial ratios approximate
// ECMP: shortest-path edges get a log-ratio head start of initSPLog
// over augmentation-only edges, so optimization starts near the traditional
// configuration (the solution-space point the paper guarantees COYOTE never
// falls below).
func New(g *graph.Graph, dags []*dagx.DAG, cfg Config) *Optimizer {
	cfg = cfg.withDefaults()
	o := &Optimizer{g: g, dags: dags, cfg: cfg}
	n, nE := g.NumNodes(), g.NumEdges()

	// Parameter arena: θ, m, v as contiguous rows of one block.
	o.paramArena = make([]float64, 3*n*nE)
	o.theta = sliceRows(o.paramArena[0:n*nE], n, nE)
	o.m = sliceRows(o.paramArena[n*nE:2*n*nE], n, nE)
	o.v = sliceRows(o.paramArena[2*n*nE:], n, nE)

	// DAG out-edge lists, CSR-packed: count, then carve views.
	total := 0
	for t := 0; t < n; t++ {
		for e := 0; e < nE; e++ {
			if dags[t].Member[e] {
				total++
			}
		}
	}
	o.outsArena = make([]graph.EdgeID, 0, total)
	o.outsOf = make([][][]graph.EdgeID, n)
	o.headsArena = make([]graph.NodeID, 0, total)
	o.headsOf = make([][][]graph.NodeID, n)
	maxDeg := 0
	for t := 0; t < n; t++ {
		o.outsOf[t] = make([][]graph.EdgeID, n)
		o.headsOf[t] = make([][]graph.NodeID, n)
		spMember := spMembership(g, dags[t])
		for u := 0; u < n; u++ {
			start := len(o.outsArena)
			for _, id := range g.Out(graph.NodeID(u)) {
				if dags[t].Member[id] {
					o.outsArena = append(o.outsArena, id)
					o.headsArena = append(o.headsArena, g.Edge(id).To)
					if spMember[id] {
						o.theta[t][id] = initSPLog
					}
				}
			}
			o.outsOf[t][u] = o.outsArena[start:len(o.outsArena):len(o.outsArena)]
			o.headsOf[t][u] = o.headsArena[start:len(o.headsArena):len(o.headsArena)]
			if d := len(o.outsOf[t][u]); d > maxDeg {
				maxDeg = d
			}
		}
	}

	// Topology-sized scratch (scenario-dependent parts grow in prepare).
	sc := &o.scratch
	sc.gradArena = make([]float64, 3*n*nE)
	sc.phi = sliceRows(sc.gradArena[0:n*nE], n, nE)
	sc.grad = sliceRows(sc.gradArena[n*nE:2*n*nE], n, nE)
	sc.gradT = sliceRows(sc.gradArena[2*n*nE:], n, nE)
	softmaxArena := make([]float64, 2*n*maxDeg)
	sc.logits = sliceRows(softmaxArena[0:n*maxDeg], n, maxDeg)
	sc.probs = sliceRows(softmaxArena[n*maxDeg:], n, maxDeg)
	sc.destGIn = sliceRows(make([]float64, n*n), n, n)
	sc.byDest = make([][]int, n)

	sc.fnMaterialize = func(t int) {
		o.materialize(t, sc.phi[t])
		for e := range sc.grad[t] {
			sc.grad[t][e] = 0
			sc.gradT[t][e] = 0
		}
	}
	sc.fnForward = func(i int) {
		tk := sc.tasks[i]
		for j := range sc.taskInflow[i] {
			sc.taskInflow[i][j] = 0
		}
		o.forwardInto(tk.t, sc.scenarios[tk.si].Cols[tk.t], sc.phi[tk.t], sc.taskLoads[i], sc.taskInflow[i])
	}
	sc.fnBackward = func(t int) {
		if len(sc.byDest[t]) == 0 {
			return
		}
		for _, ti := range sc.byDest[t] {
			si := sc.tasks[ti].si
			o.backward(t, sc.phi[t], sc.taskInflow[ti], sc.destGIn[t], sc.wNorm[si*nE:(si+1)*nE], sc.grad[t])
		}
	}
	sc.fnAdam = func(t int) {
		const beta1, beta2 = 0.9, 0.999
		for u := 0; u < n; u++ {
			out := o.outsOf[t][u]
			if len(out) < 2 {
				continue // single-edge nodes have fixed φ = 1
			}
			dot := 0.0
			for _, id := range out {
				dot += sc.grad[t][id] * sc.phi[t][id]
			}
			for _, id := range out {
				sc.gradT[t][id] = sc.phi[t][id] * (sc.grad[t][id] - dot)
			}
			for _, id := range out {
				gth := sc.gradT[t][id]
				o.m[t][id] = beta1*o.m[t][id] + (1-beta1)*gth
				o.v[t][id] = beta2*o.v[t][id] + (1-beta2)*gth*gth
				mhat := o.m[t][id] / sc.bc1
				vhat := o.v[t][id] / sc.bc2
				o.theta[t][id] -= lr * mhat / (math.Sqrt(vhat) + 1e-12)
			}
		}
	}
	return o
}

// sliceRows carves a flat arena into rows equal-length full-capacity views.
func sliceRows(arena []float64, rows, width int) [][]float64 {
	out := make([][]float64, rows)
	for i := 0; i < rows; i++ {
		out[i] = arena[i*width : (i+1)*width : (i+1)*width]
	}
	return out
}

// spMembership returns the shortest-path DAG membership vector for d.Dst:
// derived from the DAG's cached construction-time distance field when
// present (zero Dijkstras), cold spf.ToDestination otherwise.
func spMembership(g *graph.Graph, d *dagx.DAG) []bool {
	tree := d.Tree()
	if tree == nil {
		tree = spf.ToDestination(g, d.Dst)
	}
	return tree.ShortestPathEdges(g)
}

// Routing materializes the current parameters as a PD routing
// (φ = softmax(θ) over each node's DAG out-edges). Destinations are
// materialized in parallel; each writes only its own Phi row.
func (o *Optimizer) Routing() *pdrouting.Routing {
	r := pdrouting.NewZero(o.g, o.dags)
	n := o.g.NumNodes()
	par.For(o.cfg.Workers, n, func(t int) {
		o.materialize(t, r.Phi[t])
	})
	return r
}

// materialize writes φ = softmax(θ) for destination t into phiT, using t's
// private softmax scratch rows (safe under the per-destination fan-out).
func (o *Optimizer) materialize(t int, phiT []float64) {
	n := o.g.NumNodes()
	for u := 0; u < n; u++ {
		out := o.outsOf[t][u]
		if len(out) == 0 || u == t {
			continue
		}
		logits := o.scratch.logits[t][:len(out)]
		probs := o.scratch.probs[t][:len(out)]
		for i, id := range out {
			logits[i] = o.theta[t][id]
		}
		geom.Softmax(logits, probs)
		for i, id := range out {
			phiT[id] = probs[i]
		}
	}
}

// Objective evaluates the true (unsmoothed) worst normalized utilization of
// routing r over the scenarios. Scenarios are evaluated in parallel (one
// worker per CPU); the per-scenario accumulation stays serial in
// destination order and the final max-reduction is exact, so the value is
// worker-count-independent.
func Objective(r *pdrouting.Routing, scenarios []Scenario) float64 {
	return objective(r, scenarios, 0)
}

// objective is Objective bounded to the given worker count, so Run honors
// Config.Workers end to end.
func objective(r *pdrouting.Routing, scenarios []Scenario, workers int) float64 {
	perScenario := make([]float64, len(scenarios))
	par.For(workers, len(scenarios), func(si int) {
		sc := scenarios[si]
		loads := make([]float64, r.G.NumEdges())
		for t, col := range sc.Cols {
			if col == nil {
				continue
			}
			lt := r.DestLoads(graph.NodeID(t), col)
			for e := range loads {
				loads[e] += lt[e]
			}
		}
		worst := 0.0
		for e := range loads {
			u := loads[e] / (r.G.Edge(graph.EdgeID(e)).Capacity * sc.Norm)
			if u > worst {
				worst = u
			}
		}
		perScenario[si] = worst
	})
	worst := 0.0
	for _, v := range perScenario {
		if v > worst {
			worst = v
		}
	}
	return worst
}

// Run performs cfg.Iters Adam steps against the given scenario set and
// returns the final true objective (worst normalized utilization). It may
// be called repeatedly; parameters and Adam state persist across calls.
//
// Within every step the per-(scenario, destination) forward passes, the
// per-destination backward passes, and the per-destination Adam updates
// each fan out across the worker pool; the per-scenario load totals and the
// smooth-max weights are reduced serially in a fixed order, so the result
// is bit-identical for any Config.Workers.
func (o *Optimizer) Run(scenarios []Scenario) float64 {
	return o.RunCtx(context.Background(), scenarios)
}

// RunCtx is Run with tracing: when ctx carries an obs.Tracer it records a
// gpopt.run span whose attributes break the wall time into the forward
// (propagation) and backward (gradient) passes, aggregated across
// iterations. The extra clock reads happen only under tracing, and nothing
// observed feeds back into the optimization — results are bit-identical
// with tracing on or off.
func (o *Optimizer) RunCtx(ctx context.Context, scenarios []Scenario) float64 {
	_, span := obs.StartSpan(ctx, "gpopt.run")
	var fwdTime, bwdTime time.Duration
	defer func() {
		if span != nil {
			span.Attr("iters", o.cfg.Iters).
				Attr("scenarios", len(scenarios)).
				Attr("forward_ms", fwdTime.Seconds()*1e3).
				Attr("backward_ms", bwdTime.Seconds()*1e3)
			span.End()
		}
	}()
	cfg := o.cfg
	if !o.prepare(scenarios) {
		return 0
	}
	for it := 0; it < cfg.Iters; it++ {
		frac := float64(it) / float64(max(cfg.Iters-1, 1))
		tau := tauStart * math.Pow(tauEnd/tauStart, frac)
		o.stepOnce(scenarios, tau, span, &fwdTime, &bwdTime)
	}
	return objective(o.Routing(), scenarios, cfg.Workers)
}

// prepare (re)builds the task list for the scenario set and grows the
// scenario-sized scratch arenas if needed. It reports whether any work
// exists. With an unchanged (or smaller) scenario set everything is reused
// and nothing allocates.
func (o *Optimizer) prepare(scenarios []Scenario) bool {
	sc := &o.scratch
	sc.scenarios = scenarios
	n, nE := o.g.NumNodes(), o.g.NumEdges()

	// The work units of one gradient step: every (scenario, destination)
	// pair with demand, in a fixed order. byDest groups the task indices
	// per destination so the backward pass can accumulate into grad[t]
	// race-free (one goroutine per destination) yet in scenario order.
	sc.tasks = sc.tasks[:0]
	for t := range sc.byDest {
		sc.byDest[t] = sc.byDest[t][:0]
	}
	for si, s := range scenarios {
		for t := 0; t < n; t++ {
			if s.Cols[t] == nil {
				continue
			}
			sc.byDest[t] = append(sc.byDest[t], len(sc.tasks))
			sc.tasks = append(sc.tasks, task{si: si, t: t})
		}
	}
	if len(sc.tasks) == 0 {
		return false
	}

	// Row views depend only on the counts, so an unchanged task/scenario
	// count reuses the previous views outright (zero allocations).
	nT := len(sc.tasks)
	if nT != len(sc.taskLoads) {
		if need := nT * (nE + n); cap(sc.taskArena) < need {
			sc.taskArena = make([]float64, need)
		}
		sc.taskLoads = sliceRows(sc.taskArena[0:nT*nE], nT, nE)
		sc.taskInflow = sliceRows(sc.taskArena[nT*nE:nT*(nE+n)], nT, n)
	}

	nS := len(scenarios)
	if nS != len(sc.scLoads) {
		if need := nS * nE; cap(sc.scArena) < need {
			sc.scArena = make([]float64, need)
			sc.utils = make([]float64, need)
			sc.scaled = make([]float64, need)
			sc.w = make([]float64, need)
			sc.wNorm = make([]float64, need)
		}
		sc.scLoads = sliceRows(sc.scArena[:nS*nE], nS, nE)
		sc.utils = sc.utils[:cap(sc.utils)][:nS*nE]
		sc.scaled = sc.scaled[:cap(sc.scaled)][:nS*nE]
		sc.w = sc.w[:cap(sc.w)][:nS*nE]
		sc.wNorm = sc.wNorm[:cap(sc.wNorm)][:nS*nE]
	}
	return true
}

// stepOnce performs one Adam iteration at temperature tau. It touches only
// the optimizer's parameter arena and prepared scratch — zero allocations
// in steady state (TestRunStepAllocs pins this).
func (o *Optimizer) stepOnce(scenarios []Scenario, tau float64, span *obs.Span, fwdTime, bwdTime *time.Duration) {
	cfg := o.cfg
	sc := &o.scratch
	n, nE := o.g.NumNodes(), o.g.NumEdges()

	// Materialize φ = softmax(θ) and clear gradients, per destination.
	par.For(cfg.Workers, n, sc.fnMaterialize)

	var passStart time.Time
	if span.Active() {
		passStart = time.Now()
	}

	// Forward: per-(scenario, destination) propagations in parallel...
	par.For(cfg.Workers, len(sc.tasks), sc.fnForward)
	// ...then per-scenario totals and utilizations reduced serially in
	// task order. The utilization of edge e in scenario si sits at index
	// si·nE+e of utils, so no index indirection is needed anywhere.
	for si := range sc.scLoads {
		for e := range sc.scLoads[si] {
			sc.scLoads[si][e] = 0
		}
	}
	for i, tk := range sc.tasks {
		total := sc.scLoads[tk.si]
		for e := 0; e < nE; e++ {
			total[e] += sc.taskLoads[i][e]
		}
	}
	for si, s := range scenarios {
		base := si * nE
		for e := 0; e < nE; e++ {
			sc.utils[base+e] = sc.scLoads[si][e] / (o.g.Edge(graph.EdgeID(e)).Capacity * s.Norm)
		}
	}

	// Smooth-max gradient: w_i = exp(u_i/τ)/Σ.
	for i, x := range sc.utils {
		sc.scaled[i] = x / tau
	}
	geom.Softmax(sc.scaled, sc.w)
	// The backward pass's upstream load gradient, once per (scenario, edge)
	// instead of once per (destination, edge).
	for si, s := range scenarios {
		base := si * nE
		for e := 0; e < nE; e++ {
			sc.wNorm[base+e] = sc.w[base+e] / (o.g.Edge(graph.EdgeID(e)).Capacity * s.Norm)
		}
	}

	if span.Active() {
		now := time.Now()
		*fwdTime += now.Sub(passStart)
		passStart = now
	}

	// Backward: one goroutine per destination, scenarios in order.
	par.For(cfg.Workers, n, sc.fnBackward)

	// φ-gradient → θ-gradient through the softmax Jacobian, then Adam;
	// destinations own disjoint parameter rows.
	o.step++
	sc.bc1 = 1 - math.Pow(0.9, float64(o.step))
	sc.bc2 = 1 - math.Pow(0.999, float64(o.step))
	par.For(cfg.Workers, n, sc.fnAdam)
	if span.Active() {
		*bwdTime += time.Since(passStart)
	}
}

// forwardInto propagates col toward destination t with ratios phiT, writing
// the per-edge loads into loads (fully overwritten). The caller-provided
// inflow scratch must be zeroed on entry.
func (o *Optimizer) forwardInto(t int, col []float64, phiT, loads, inflow []float64) {
	d := o.dags[t]
	for i := range loads {
		loads[i] = 0
	}
	for v, dem := range col {
		if v != t {
			inflow[v] = dem
		}
	}
	for _, u := range d.Order {
		if int(u) == t || inflow[u] == 0 {
			continue
		}
		heads := o.headsOf[t][u]
		for k, id := range o.outsOf[t][u] {
			f := inflow[u] * phiT[id]
			loads[id] = f
			inflow[heads[k]] += f
		}
	}
}

// backward accumulates dLoss/dφ into gPhi for one (scenario, destination)
// task: inflow holds the node inflows its forward pass left behind
// (forwardInto), wNorm the scenario's upstream load gradients by edge
// (w[e]/(capacity(e)·Norm)). It walks the DAG in reverse topological order;
// the caller-provided gIn scratch is overwritten.
func (o *Optimizer) backward(t int, phiT, inflow, gIn, wNorm, gPhi []float64) {
	for i := range gIn {
		gIn[i] = 0
	}
	order := o.dags[t].Order
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		if int(u) == t || inflow[u] == 0 {
			continue
		}
		heads := o.headsOf[t][u]
		for k, id := range o.outsOf[t][u] {
			up := wNorm[id] + gIn[heads[k]]
			gIn[u] += up * phiT[id]
			gPhi[id] += up * inflow[u]
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
