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
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/par"
	"github.com/coyote-te/coyote/internal/pdrouting"
)

// softmax writes exp(v_i − max)/Σ into out (allocating if nil) and returns
// it. It is the log-space primitive behind the geometric program of
// Appendix C of the paper: the optimizer works in log space, where a
// posynomial constraint becomes a log-sum-exp of affine functions — "a
// logarithm of a sum of exponentials of linear functions and so is convex"
// (§V-C) — and softmax is that log-sum-exp's gradient. It is also the
// reparameterization that keeps the splitting-ratio constraint Σφ = 1
// exact: the normalized monomial family produced by the paper's
// condensation of that constraint.
func softmax(v []float64, out []float64) []float64 {
	if out == nil {
		out = make([]float64, len(v))
	}
	if len(v) == 0 {
		return out
	}
	mx := v[0]
	for _, x := range v[1:] {
		if x > mx {
			mx = x
		}
	}
	s := 0.0
	for i, x := range v {
		out[i] = math.Exp(x - mx)
		s += out[i]
	}
	inv := 1 / s
	for i := range out {
		out[i] *= inv
	}
	return out
}

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
	Workers int // worker-pool size for the per-destination sweeps (≤ 0 = GOMAXPROCS); never changes results
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
// A gradient step is two sweeps of every destination's DAG, each sweep
// moving all scenarios together, fanned out per destination across a worker
// pool of Config.Workers goroutines (DESIGN.md §4). All cross-destination
// floating-point reductions happen serially in a fixed order, so a Run's
// result is bit-identical for any worker count.
type Optimizer struct {
	g    *graph.Graph
	dags []*dagx.DAG
	cfg  Config

	// θ and the Adam moments live in one flat arena (3·n·nE float64s,
	// allocated once per topology); theta/m/v are per-destination row views
	// into it, so the parameter state stays a single contiguous block.
	paramArena []float64
	theta      [][]float64 // theta[t][e]; only DAG member edges are meaningful
	m, v       [][]float64 // Adam moments
	step       int

	// Every destination's DAG, flattened once: sweeps[t] lists the nodes
	// and their ranges of edge slots; edge[q] and head[q] are slot q's
	// global edge id and head node. Slots are numbered destination by
	// destination, so one destination's slots are contiguous.
	sweeps []sweep
	edge   []graph.EdgeID
	head   []graph.NodeID

	// scratch holds every buffer Run and materialize need, sized once per
	// topology (and grown only when the scenario set does), so steady-state
	// gradient iterations allocate nothing (TestRunStepAllocs).
	scratch runScratch
}

// sweep is one destination's DAG as a CSR in topological order: node holds
// the nodes that forward traffic (the destination and dead ends dropped),
// and node[i]'s out-edges are the slots first[i]..first[i+1], in graph.Out
// order.
type sweep struct {
	node  []graph.NodeID
	first []int
}

// outs returns the edge ids of the i-th node of t's sweep.
func (o *Optimizer) outs(t, i int) []graph.EdgeID {
	sw := &o.sweeps[t]
	return o.edge[sw.first[i]:sw.first[i+1]]
}

// runScratch is the reusable workspace of Run. The parts that depend only
// on the topology (per-destination φ/gradient rows, softmax scratch) are
// allocated in New; the parts that scale with the scenario set are carved
// by prepare out of one arena that grows geometrically and is reused when
// the set shrinks. Those are rows of S contiguous lanes, one per scenario,
// so a sweep moves every scenario per edge visit. Nothing in here ever
// escapes the optimizer (DESIGN.md §12: scratch never escapes,
// instrumentation never touches the numeric path).
type runScratch struct {
	phi, grad [][]float64 // row views, n × nE, by global edge id

	logits, probs [][]float64 // per-destination softmax scratch, n × maxOutDeg

	lanes []float64 // the arena every row below is carved from
	S     int       // lanes per row: the current Run's scenario count

	dem, inflow, adj []float64 // n rows per destination, by node: demand column, forward inflow, backward adjoint
	loads            []float64 // a row per edge slot: the load its destination's sweep put on the edge
	tot              []float64 // nE rows: an edge's load summed over destinations
	wNorm            []float64 // nE rows: w/(capacity·Norm), the upstream load gradient
	capNorm          []float64 // scenario-major from here on (scenario si, edge e at si·nE+e): capacity·Norm
	scaled           []float64 // utilization/τ, softmax input
	w                []float64 // smooth-max weights, softmax output

	// The par.For leaves are bound once in New and reused every iteration
	// (a func value passed to For escapes to its worker goroutines, so a
	// fresh one per call would heap-allocate). Iteration-varying state flows
	// through the fields below instead of captures.
	bc1, bc2   float64 // Adam bias corrections for the current step
	fnForward  func(t int)
	fnBackward func(t int)
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

	// Flatten the DAGs: count slots, then walk each topological order.
	total := 0
	for t := 0; t < n; t++ {
		for e := 0; e < nE; e++ {
			if dags[t].Member[e] {
				total++
			}
		}
	}
	o.edge = make([]graph.EdgeID, 0, total)
	o.head = make([]graph.NodeID, 0, total)
	o.sweeps = make([]sweep, n)
	maxDeg := 0
	for t := 0; t < n; t++ {
		spMember := dags[t].Tree(g).ShortestPathEdges(g)
		sw := &o.sweeps[t]
		sw.node = make([]graph.NodeID, 0, n)
		sw.first = append(make([]int, 0, n+1), len(o.edge))
		for _, u := range dags[t].Order {
			if int(u) == t {
				continue
			}
			start := len(o.edge)
			for _, id := range g.Out(u) {
				if dags[t].Member[id] {
					o.edge = append(o.edge, id)
					o.head = append(o.head, g.Edge(id).To)
					if spMember[id] {
						o.theta[t][id] = initSPLog
					}
				}
			}
			if len(o.edge) == start {
				continue // dead end: forwards nothing
			}
			sw.node = append(sw.node, u)
			sw.first = append(sw.first, len(o.edge))
			maxDeg = max(maxDeg, len(o.edge)-start)
		}
	}

	// Topology-sized scratch (scenario-dependent parts are carved in prepare).
	sc := &o.scratch
	gradArena := make([]float64, 2*n*nE)
	sc.phi = sliceRows(gradArena[0:n*nE], n, nE)
	sc.grad = sliceRows(gradArena[n*nE:], n, nE)
	softmaxArena := make([]float64, 2*n*maxDeg)
	sc.logits = sliceRows(softmaxArena[0:n*maxDeg], n, maxDeg)
	sc.probs = sliceRows(softmaxArena[n*maxDeg:], n, maxDeg)
	sc.fnForward = o.forwardDest
	sc.fnBackward = o.backwardDest
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
	theta := o.theta[t]
	for i := range o.sweeps[t].node {
		out := o.outs(t, i)
		if len(out) == 1 {
			phiT[out[0]] = 1 // what softmax returns for one logit, exactly
			continue
		}
		logits := o.scratch.logits[t][:len(out)]
		probs := o.scratch.probs[t][:len(out)]
		for k, id := range out {
			logits[k] = theta[id]
		}
		softmax(logits, probs)
		for k, id := range out {
			phiT[id] = probs[k]
		}
	}
}

// Objective evaluates the true (unsmoothed) worst normalized utilization of
// routing r over the scenarios. Scenarios are evaluated in parallel (one
// worker per CPU); the per-scenario accumulation stays serial in
// destination order and the final max-reduction is exact, so the value is
// worker-count-independent.
func Objective(r *pdrouting.Routing, scenarios []Scenario) float64 {
	perScenario := make([]float64, len(scenarios))
	par.For(0, len(scenarios), func(si int) {
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
// returns the final true objective (worst normalized utilization, equal to
// Objective(o.Routing(), scenarios)). It may be called repeatedly;
// parameters and Adam state persist across calls.
//
// Every step is two loops over destinations — a forward sweep, then a
// reverse sweep fused with the Adam update — with the per-edge load totals
// and the smooth-max weights reduced serially in a fixed order between
// them, so the result is bit-identical for any Config.Workers.
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
		o.stepOnce(tau, span, &fwdTime, &bwdTime)
	}
	// The closing objective is one more forward pass on the step's scratch.
	o.forward()
	sc := &o.scratch
	S, nE := sc.S, o.g.NumEdges()
	worst := 0.0
	for si := 0; si < S; si++ {
		for e := 0; e < nE; e++ {
			if u := sc.tot[e*S+si] / sc.capNorm[si*nE+e]; u > worst {
				worst = u
			}
		}
	}
	return worst
}

// prepare carves the lane rows for the scenario set — growing the arena if
// the set outgrew it — and loads the demand lanes and the capacity·Norm
// products. It reports whether any work exists. With an unchanged (or
// smaller) scenario set nothing allocates.
func (o *Optimizer) prepare(scenarios []Scenario) bool {
	sc := &o.scratch
	n, nE, S := o.g.NumNodes(), o.g.NumEdges(), len(scenarios)
	if need := S * (3*n*n + len(o.edge) + 5*nE); need > len(sc.lanes) {
		sc.lanes = make([]float64, max(need, 2*len(sc.lanes)))
	}
	sc.S = S
	rest := sc.lanes
	carve := func(rows int) []float64 {
		row := rest[: rows*S : rows*S]
		rest = rest[rows*S:]
		return row
	}
	sc.dem, sc.inflow, sc.adj = carve(n*n), carve(n*n), carve(n*n)
	sc.loads = carve(len(o.edge))
	sc.tot, sc.wNorm = carve(nE), carve(nE)
	sc.capNorm, sc.scaled, sc.w = carve(nE), carve(nE), carve(nE)

	// A scenario without demand toward t is a zero lane of t's rows.
	work := false
	clear(sc.dem)
	for si, s := range scenarios {
		for t, col := range s.Cols {
			work = work || col != nil
			for v, d := range col {
				if v != t {
					sc.dem[(t*n+v)*S+si] = d
				}
			}
		}
		for e := 0; e < nE; e++ {
			sc.capNorm[si*nE+e] = o.g.Edge(graph.EdgeID(e)).Capacity * s.Norm
		}
	}
	return work
}

// stepOnce performs one Adam iteration at temperature tau. It touches only
// the optimizer's parameter arena and prepared scratch — zero allocations
// in steady state (TestRunStepAllocs pins this).
func (o *Optimizer) stepOnce(tau float64, span *obs.Span, fwdTime, bwdTime *time.Duration) {
	sc := &o.scratch
	S, nE := sc.S, o.g.NumEdges()

	var passStart time.Time
	if span.Active() {
		passStart = time.Now()
	}
	o.forward()

	// Smooth-max gradient: w_i = exp(u_i/τ)/Σ over the utilizations in
	// scenario-major order (the order the softmax sums in), then the
	// backward pass's upstream load gradient, once per (scenario, edge).
	for si := 0; si < S; si++ {
		for e := 0; e < nE; e++ {
			sc.scaled[si*nE+e] = sc.tot[e*S+si] / sc.capNorm[si*nE+e] / tau
		}
	}
	softmax(sc.scaled, sc.w)
	for si := 0; si < S; si++ {
		for e := 0; e < nE; e++ {
			sc.wNorm[e*S+si] = sc.w[si*nE+e] / sc.capNorm[si*nE+e]
		}
	}

	if span.Active() {
		now := time.Now()
		*fwdTime += now.Sub(passStart)
		passStart = now
	}

	o.step++
	sc.bc1 = 1 - math.Pow(0.9, float64(o.step))
	sc.bc2 = 1 - math.Pow(0.999, float64(o.step))
	par.For(o.cfg.Workers, len(o.sweeps), sc.fnBackward)
	if span.Active() {
		*bwdTime += time.Since(passStart)
	}
}

// forward materializes φ and propagates every scenario's demand down every
// destination's DAG, then totals the loads per (edge, scenario): member
// edges only, destinations ascending (slot order), so each total adds its
// terms in the same order at any worker count.
func (o *Optimizer) forward() {
	sc := &o.scratch
	par.For(o.cfg.Workers, len(o.sweeps), sc.fnForward)
	S := sc.S
	clear(sc.tot)
	for q, id := range o.edge {
		tot := sc.tot[int(id)*S:][:S]
		for j, f := range sc.loads[q*S:][:S] {
			tot[j] += f
		}
	}
}

// forwardDest is the forward leaf of destination t: φ = softmax(θ), then one
// sweep of t's DAG in topological order that splits each node's inflow over
// its out-edges, all lanes per edge. The inflows stay behind for
// backwardDest.
func (o *Optimizer) forwardDest(t int) {
	sc := &o.scratch
	phi := sc.phi[t]
	o.materialize(t, phi)
	S, sw := sc.S, &o.sweeps[t]
	rows := o.g.NumNodes() * S
	in := sc.inflow[t*rows:][:rows]
	copy(in, sc.dem[t*rows:][:rows])
	for i, u := range sw.node {
		inU := in[int(u)*S:][:S]
		for q := sw.first[i]; q < sw.first[i+1]; q++ {
			p := phi[o.edge[q]]
			load := sc.loads[q*S:][:S]
			inH := in[int(o.head[q])*S:][:S]
			for j, x := range inU {
				f := x * p
				load[j] = f
				inH[j] += f
			}
		}
	}
}

// backwardDest is the backward leaf of destination t: one sweep of t's DAG
// in reverse topological order accumulating dLoss/dφ per edge over the
// lanes in scenario order, then the φ-gradient → θ-gradient through the
// softmax Jacobian and the Adam update of t's parameter rows. A lane whose
// inflow at a node is zero skips the node, adjoint included — which differs
// from adding zeros exactly when a φ underflowed to 0.
func (o *Optimizer) backwardDest(t int) {
	sc := &o.scratch
	phi, grad := sc.phi[t], sc.grad[t]
	S, sw := sc.S, &o.sweeps[t]
	rows := o.g.NumNodes() * S
	in := sc.inflow[t*rows:][:rows]
	adj := sc.adj[t*rows:][:rows]
	clear(adj)
	for i := len(sw.node) - 1; i >= 0; i-- {
		u := int(sw.node[i])
		inU, adjU := in[u*S:][:S], adj[u*S:][:S]
		for q := sw.first[i]; q < sw.first[i+1]; q++ {
			id := o.edge[q]
			p := phi[id]
			wNorm := sc.wNorm[int(id)*S:][:S]
			adjH := adj[int(o.head[q])*S:][:S]
			g := 0.0
			for j, x := range inU {
				if x == 0 {
					continue
				}
				up := wNorm[j] + adjH[j]
				adjU[j] += up * p
				g += up * x
			}
			grad[id] = g
		}
	}

	const beta1, beta2 = 0.9, 0.999
	theta, m, v := o.theta[t], o.m[t], o.v[t]
	for i := range sw.node {
		out := o.outs(t, i)
		if len(out) < 2 {
			continue // single-edge nodes have fixed φ = 1
		}
		dot := 0.0
		for _, id := range out {
			dot += grad[id] * phi[id]
		}
		for _, id := range out {
			gth := phi[id] * (grad[id] - dot)
			m[id] = beta1*m[id] + (1-beta1)*gth
			v[id] = beta2*v[id] + (1-beta2)*gth*gth
			mhat := m[id] / sc.bc1
			vhat := v[id] / sc.bc2
			theta[id] -= lr * mhat / (math.Sqrt(vhat) + 1e-12)
		}
	}
}
