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
// result is bit-identical for any worker count. Inside a sweep an edge
// visit moves its lanes in blocks of four, written out by hand (the
// compiler does not unroll loops), then a scalar tail of S mod 4 lanes.
// Every lane's operations and every sum keep the scalar step's order, so
// the oracle in step_reference_test.go pins θ, m and v bit for bit: a
// faster step must not move the optimizer's results.
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

	lanes []float64 // the arena every row below is carved from
	S     int       // lanes per row: the current Run's scenario count

	dem, inflow, adj []float64 // n rows per destination, by node: demand column, forward inflow, backward adjoint
	loads            []float64 // a row per edge slot: the load its destination's sweep put on the edge
	tot              []float64 // nE rows: an edge's load summed over destinations
	wNorm            []float64 // nE rows: w/(capacity·Norm), the upstream load gradient
	capNorm          []float64 // nE rows: capacity·Norm
	w                []float64 // nE rows: utilization/τ, then the smooth-max weights

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
		}
	}

	// Topology-sized scratch (scenario-dependent parts are carved in prepare).
	sc := &o.scratch
	gradArena := make([]float64, 2*n*nE)
	sc.phi = sliceRows(gradArena[0:n*nE], n, nE)
	sc.grad = sliceRows(gradArena[n*nE:], n, nE)
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

// materialize writes φ = softmax(θ) for destination t into phiT, node by
// node over its out-edge slots. Softmax is the log-space primitive behind
// the geometric program of Appendix C of the paper: the optimizer works in
// log space, where a posynomial constraint becomes a log-sum-exp of affine
// functions — "a logarithm of a sum of exponentials of linear functions and
// so is convex" (§V-C) — and softmax is that log-sum-exp's gradient. It is
// also the reparameterization that keeps the splitting-ratio constraint
// Σφ = 1 exact: the normalized monomial family produced by the paper's
// condensation of that constraint. It is computed here on θ and φ in place,
// with the scalar softmax's operations in its order (max, exp and sum, one
// multiply by the reciprocal), so φ keeps its bits without a copy in or out.
func (o *Optimizer) materialize(t int, phiT []float64) {
	theta := o.theta[t]
	for i := range o.sweeps[t].node {
		out := o.outs(t, i)
		if len(out) == 1 {
			phiT[out[0]] = 1 // what softmax returns for one logit, exactly
			continue
		}
		mx := theta[out[0]]
		for _, id := range out[1:] {
			if x := theta[id]; x > mx {
				mx = x
			}
		}
		s := 0.0
		for _, id := range out {
			phiT[id] = math.Exp(theta[id] - mx)
			s += phiT[id]
		}
		inv := 1 / s
		for _, id := range out {
			phiT[id] *= inv
		}
	}
}

// Objective evaluates the true (unsmoothed) worst normalized utilization of
// routing r over the scenarios, each scenario's loads accumulated in
// destination order.
func Objective(r *pdrouting.Routing, scenarios []Scenario) float64 {
	worst := 0.0
	loads := make([]float64, r.G.NumEdges())
	for _, sc := range scenarios {
		clear(loads)
		for t, col := range sc.Cols {
			if col == nil {
				continue
			}
			lt := r.DestLoads(graph.NodeID(t), col)
			for e := range loads {
				loads[e] += lt[e]
			}
		}
		for e := range loads {
			if u := loads[e] / (r.G.Edge(graph.EdgeID(e)).Capacity * sc.Norm); u > worst {
				worst = u
			}
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
	worst := 0.0
	for i, x := range sc.tot {
		if u := x / sc.capNorm[i]; u > worst {
			worst = u
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
	if need := S * (3*n*n + len(o.edge) + 4*nE); need > len(sc.lanes) {
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
	sc.capNorm, sc.w = carve(nE), carve(nE)

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
			sc.capNorm[e*S+si] = o.g.Edge(graph.EdgeID(e)).Capacity * s.Norm
		}
	}
	return work
}

// stepOnce performs one Adam iteration at temperature tau. It touches only
// the optimizer's parameter arena and prepared scratch — zero allocations
// in steady state (TestRunStepAllocs pins this).
func (o *Optimizer) stepOnce(tau float64, span *obs.Span, fwdTime, bwdTime *time.Duration) {
	sc := &o.scratch
	S := sc.S

	var passStart time.Time
	if span.Active() {
		passStart = time.Now()
	}
	o.forward()

	// Smooth-max gradient: w = exp(u/τ − max)/Σ over every (edge, scenario)
	// lane, then the backward pass's upstream load gradient w/(capacity·Norm).
	// The lanes are edge-major, but Σ adds them in scenario-major order, the
	// order the scalar step's softmax sums in, and the max starts from the
	// lane both orders put first, so the weights keep the scalar bits.
	w := sc.w
	mx := sc.tot[0] / sc.capNorm[0] / tau
	for i, x := range sc.tot {
		u := x / sc.capNorm[i] / tau
		w[i] = u
		if u > mx {
			mx = u
		}
	}
	for i, u := range w {
		w[i] = math.Exp(u - mx)
	}
	sum := 0.0
	for si := 0; si < S; si++ {
		for i := si; i < len(w); i += S {
			sum += w[i]
		}
	}
	inv := 1 / sum
	for i, x := range w {
		sc.wNorm[i] = x * inv / sc.capNorm[i]
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
// terms in the same order at any worker count. The lanes go four at a
// time, but each lane is its own sum, so the blocking reorders no term.
func (o *Optimizer) forward() {
	sc := &o.scratch
	par.For(o.cfg.Workers, len(o.sweeps), sc.fnForward)
	S := sc.S
	clear(sc.tot)
	for q, id := range o.edge {
		load := sc.loads[q*S:][:S]
		tot := sc.tot[int(id)*S:][:S]
		j := 0
		for ; j <= len(load)-4; j += 4 {
			tot[j] += load[j]
			tot[j+1] += load[j+1]
			tot[j+2] += load[j+2]
			tot[j+3] += load[j+3]
		}
		for ; j < len(load); j++ {
			tot[j] += load[j]
		}
	}
}

// forwardDest is the forward leaf of destination t: φ = softmax(θ), then one
// sweep of t's DAG in topological order that splits each node's inflow over
// its out-edges, all lanes per edge, four at a time. A lane's inflow at a
// node still adds its in-edges in slot order, the order the scalar step
// adds them in, so inflows and loads keep its bits. The inflows stay
// behind for backwardDest.
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
			load, inH := sc.loads[q*S:][:S], in[int(o.head[q])*S:][:S]
			j := 0
			for ; j <= len(inU)-4; j += 4 {
				f0, f1, f2, f3 := inU[j]*p, inU[j+1]*p, inU[j+2]*p, inU[j+3]*p
				load[j], load[j+1], load[j+2], load[j+3] = f0, f1, f2, f3
				inH[j] += f0
				inH[j+1] += f1
				inH[j+2] += f2
				inH[j+3] += f3
			}
			for ; j < len(inU); j++ {
				f := inU[j] * p
				load[j] = f
				inH[j] += f
			}
		}
	}
}

// backwardDest is the backward leaf of destination t: one sweep of t's DAG
// in reverse topological order accumulating dLoss/dφ per edge over the
// lanes in scenario order, then the φ-gradient → θ-gradient through the
// softmax Jacobian and the Adam update of t's parameter rows. The lanes go
// four at a time, but an edge's gradient still adds them in lane order and
// a node's adjoint its out-edges in slot order, the scalar step's orders,
// so the gradient keeps its bits. A lane whose inflow at a node is zero
// skips the node, adjoint included — which differs from adding zeros
// exactly when a φ underflowed to 0, so the skip is tested lane by lane.
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
			wNorm, adjH := sc.wNorm[int(id)*S:][:S], adj[int(o.head[q])*S:][:S]
			g := 0.0
			j := 0
			for ; j <= len(inU)-4; j += 4 {
				if x := inU[j]; x != 0 {
					up := wNorm[j] + adjH[j]
					adjU[j] += up * p
					g += up * x
				}
				if x := inU[j+1]; x != 0 {
					up := wNorm[j+1] + adjH[j+1]
					adjU[j+1] += up * p
					g += up * x
				}
				if x := inU[j+2]; x != 0 {
					up := wNorm[j+2] + adjH[j+2]
					adjU[j+2] += up * p
					g += up * x
				}
				if x := inU[j+3]; x != 0 {
					up := wNorm[j+3] + adjH[j+3]
					adjU[j+3] += up * p
					g += up * x
				}
			}
			for ; j < len(inU); j++ {
				if x := inU[j]; x != 0 {
					up := wNorm[j] + adjH[j]
					adjU[j] += up * p
					g += up * x
				}
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
