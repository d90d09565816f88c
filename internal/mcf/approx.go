package mcf

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/obs"
)

// Deterministic FPTAS work counts (DESIGN.md §12): for a fixed input the
// deltas are identical across runs and worker counts. They are added once
// per solve, after the numeric loop, never inside it.
var (
	mApproxSolves = obs.Default.NewCounter("coyote_mcf_fptas_solves_total",
		"Garg–Könemann min-MLU solves completed.")
	mApproxPhases = obs.Default.NewCounter("coyote_mcf_fptas_phases_total",
		"Multiplicative-weights phases completed, summed over solves.")
	mApproxTrees = obs.Default.NewCounter("coyote_mcf_fptas_sptrees_total",
		"Shortest-path trees computed (scaling pass and phases), summed over solves.")
	mApproxRetries = obs.Default.NewCounter("coyote_mcf_fptas_retries_total",
		"Solves restarted with halved demands because no phase completed; expected 0.")
)

// ApproxStats is a snapshot of the process-wide FPTAS work counters — the
// source for `coyote-eval -lp-stats` next to lp.GlobalStats.
type ApproxStats struct {
	Solves, Phases, Trees, Retries uint64
}

// GlobalApproxStats returns the process-wide FPTAS work counters.
func GlobalApproxStats() ApproxStats {
	return ApproxStats{
		Solves:  mApproxSolves.Value(),
		Phases:  mApproxPhases.Value(),
		Trees:   mApproxTrees.Value(),
		Retries: mApproxRetries.Value(),
	}
}

// ResetGlobalApproxStats zeroes the FPTAS work counters (per-run accounting
// for -lp-stats, like lp.ResetGlobalStats).
func ResetGlobalApproxStats() {
	for _, c := range []*obs.Counter{mApproxSolves, mApproxPhases, mApproxTrees, mApproxRetries} {
		c.Reset()
	}
}

// EpsError reports an FPTAS accuracy the scheme does not support.
type EpsError struct{ Eps float64 }

func (e *EpsError) Error() string {
	return fmt.Sprintf("mcf: eps %g out of range (0, 0.5)", e.Eps)
}

// CheckEps validates an FPTAS accuracy as option structs carry it: 0
// selects the default, anything else must be finite and inside (0, 0.5).
// The error is an *EpsError.
func CheckEps(eps float64) error {
	if eps == 0 || (eps > 0 && eps < 0.5) {
		return nil
	}
	return &EpsError{Eps: eps}
}

// Approx is the Garg–Könemann/Fleischer FPTAS for min-MLU bound to one
// (graph, DAGs) pair: an immutable index of the edge arrays and of the
// per-destination DAGs, plus a pool of solve workspaces. Build it once and
// solve many demand matrices; it is safe for concurrent use (each solve
// takes its own workspace). The graph's capacities and weights are read at
// construction, so the graph must not change afterwards.
type Approx struct {
	n, m   int
	g      *graph.Graph
	dags   []*dagx.DAG
	cap    []float64
	weight []float64 // OSPF weights: the lengths of the demand-scaling pass
	to     []int32
	pool   sync.Pool // *workspace
}

// workspace is the mutable state of one solve, recycled through
// Approx.pool so a steady-state solve allocates nothing.
type workspace struct {
	dist   []float64
	parent []int32   // first edge of the shortest path to the tree's root, or -1
	bott   []float64 // least capacity on the tree path to the root
	length []float64 // the multiplicative-weights edge lengths
	loads  []float64 // single-path edge loads of the scaling pass
	dests  []int32   // destinations with demand
	// One row per entry of dests: the demand column toward it (n wide) and
	// its edge flows from completed phases and from the phase in progress
	// (m wide). The flow rows stay per destination because the final loads
	// sum them in destination order.
	col, done, phase []float64
}

// NewApprox indexes g restricted to dags, one DAG per destination (as
// dagx.BuildAll returns them).
func NewApprox(g *graph.Graph, dags []*dagx.DAG) *Approx {
	n, m := g.NumNodes(), g.NumEdges()
	a := &Approx{
		n: n, m: m,
		g:      g,
		dags:   dags,
		cap:    make([]float64, m),
		weight: make([]float64, m),
		to:     make([]int32, m),
	}
	for _, e := range g.Edges() {
		a.cap[e.ID], a.weight[e.ID] = e.Capacity, e.Weight
		a.to[e.ID] = int32(e.To)
	}
	a.pool.New = func() any {
		return &workspace{
			dist:   make([]float64, n),
			parent: make([]int32, n),
			bott:   make([]float64, n),
			length: make([]float64, m),
			loads:  make([]float64, m),
			dests:  make([]int32, 0, n),
			col:    make([]float64, 0, n*n),
		}
	}
	return a
}

// MinMLUApprox approximates min-MLU with a Garg–Könemann/Fleischer
// multiplicative-weights scheme, aggregating commodities per destination
// (one shortest-path tree per destination per phase). The returned flow
// routes D exactly inside the DAGs, so it is acyclic per destination
// (convertible to splitting ratios); its utilization lies in
// [OPT, (1+O(eps))·OPT] for OPT the min-MLU within the DAGs.
//
// This is the one-shot form of NewApprox(g, dags).Solve(D, eps); callers
// that normalize many matrices over the same DAGs keep the Approx.
func MinMLUApprox(g *graph.Graph, dags []*dagx.DAG, D *demand.Matrix, eps float64) (float64, [][]float64, error) {
	return NewApprox(g, dags).Solve(D, eps)
}

// MLU is Solve without the flows: the utilization only, with no allocation
// once the workspace pool is warm. When lengths is non-nil (one entry per
// edge) a successful solve of a non-zero D also leaves its dual certificate
// there: the multiplicative-weights lengths at termination scaled to
// Σ l_e·c_e = 1, under which Σ D_st·dist_l(s,t) bounds the min-MLU of any
// matrix over the same DAGs from below (CheckDual).
func (a *Approx) MLU(D *demand.Matrix, eps float64, lengths []float64) (float64, error) {
	mlu, _, err := a.solve(D, eps, false, lengths)
	return mlu, err
}

// Solve returns the approximate min-MLU of D and the per-destination edge
// flows attaining it (flows[t][e]; nil rows for destinations without
// demand).
func (a *Approx) Solve(D *demand.Matrix, eps float64) (float64, [][]float64, error) {
	return a.solve(D, eps, true, nil)
}

func (a *Approx) solve(D *demand.Matrix, eps float64, wantFlows bool, lengths []float64) (float64, [][]float64, error) {
	if !(eps > 0 && eps < 0.5) {
		return 0, nil, &EpsError{Eps: eps}
	}
	if D.N != a.n {
		return 0, nil, fmt.Errorf("mcf: %d×%d demand matrix on a %d-node index", D.N, D.N, a.n)
	}
	var flows [][]float64
	if wantFlows {
		flows = make([][]float64, a.n)
	}
	if D.Total() == 0 {
		return 0, flows, nil
	}
	ws := a.pool.Get().(*workspace)
	defer a.pool.Put(ws)

	// Scale demands so a single-shortest-path routing has MLU 1; this keeps
	// the concurrency β = 1/OPT within a small constant and bounds the
	// number of phases.
	a.loadColumns(ws, D, 1)
	refMLU, err := a.singlePathMLU(ws)
	trees := len(ws.dests)
	if err != nil {
		return math.Inf(1), nil, err
	}
	for attempt := 0; attempt < 8; attempt++ {
		scale := 1 / refMLU
		a.loadColumns(ws, D, scale)
		phases, runTrees, err := a.run(ws, eps)
		trees += runTrees
		if err != nil {
			return math.Inf(1), nil, err
		}
		if phases == 0 {
			// Zero full phases completed: demands too large relative to the
			// length budget; shrink and retry.
			refMLU *= 2
			continue
		}
		// done holds the sum over phases of flows routing the scaled
		// demands once each: done/phases routes them with utilization mlu,
		// and undoing the scaling routes D with utilization mlu/scale.
		m := a.m
		inv := 1 / float64(phases)
		mlu := 0.0
		for e := 0; e < m; e++ {
			load := 0.0
			for k := range ws.dests {
				load += ws.done[k*m+e] * inv
			}
			if u := load / a.cap[e]; u > mlu {
				mlu = u
			}
		}
		if wantFlows {
			for k, t := range ws.dests {
				row := make([]float64, m)
				for e, f := range ws.done[k*m : (k+1)*m] {
					row[e] = f * inv / scale
				}
				flows[t] = row
			}
		}
		if lengths != nil {
			sumLC := 0.0
			for e, l := range ws.length {
				sumLC += l * a.cap[e]
			}
			for e, l := range ws.length {
				lengths[e] = l / sumLC
			}
		}
		mApproxSolves.Inc()
		mApproxPhases.Add(uint64(phases))
		mApproxTrees.Add(uint64(trees))
		mApproxRetries.Add(uint64(attempt))
		return mlu / scale, flows, nil
	}
	return 0, nil, errors.New("mcf: approximation failed to complete a phase")
}

// loadColumns fills the workspace with the demand columns of D times scale,
// one row per destination that still has a positive entry after scaling.
func (a *Approx) loadColumns(ws *workspace, D *demand.Matrix, scale float64) {
	n := a.n
	ws.dests = ws.dests[:0]
	ws.col = ws.col[:0]
	for t := 0; t < n; t++ {
		base := len(ws.col)
		any := false
		for s := 0; s < n; s++ {
			d := D.D[s*n+t] * scale
			any = any || d > 0
			ws.col = append(ws.col, d)
		}
		if any {
			ws.dests = append(ws.dests, int32(t))
		} else {
			ws.col = ws.col[:base]
		}
	}
}

// singlePathMLU routes every loaded demand along one shortest path (by
// OSPF weight) and returns the resulting utilization — a cheap upper bound
// on OPT used only for demand scaling.
func (a *Approx) singlePathMLU(ws *workspace) (float64, error) {
	n := a.n
	clear(ws.loads)
	for k, t := range ws.dests {
		a.tree(ws, t, a.weight)
		col := ws.col[k*n : (k+1)*n]
		for s := int32(0); s < int32(n); s++ {
			if col[s] <= 0 || s == t {
				continue
			}
			if ws.parent[s] < 0 {
				return 0, ErrUnroutable
			}
			for u := s; u != t; {
				id := ws.parent[u]
				ws.loads[id] += col[s]
				u = a.to[id]
			}
		}
	}
	mlu := 0.0
	for e, load := range ws.loads {
		if u := load / a.cap[e]; u > mlu {
			mlu = u
		}
	}
	return mlu, nil
}

// run executes the multiplicative-weights loop on the loaded columns,
// leaving the summed per-phase flows in ws.done. It reports the phases
// completed and the shortest-path trees computed.
func (a *Approx) run(ws *workspace, eps float64) (phases, trees int, err error) {
	n, m := a.n, a.m
	rows := len(ws.dests) * m
	ws.done = zeroed(ws.done, rows)
	ws.phase = zeroed(ws.phase, rows)
	length, capacity := ws.length, a.cap

	delta := (1 + eps) * math.Pow((1+eps)*float64(m), -1/eps)
	sumLC := 0.0 // Σ l(e)·c(e)
	for e := range length {
		length[e] = delta / capacity[e]
		sumLC += delta
	}
	const maxPhases = 200000
	for sumLC < 1 && phases < maxPhases {
		for k, t := range ws.dests {
			a.tree(ws, t, length)
			trees++
			col := ws.col[k*n : (k+1)*n]
			row := ws.phase[k*m : (k+1)*m]
			for s := int32(0); s < int32(n); s++ {
				if col[s] <= 0 || s == t {
					continue
				}
				if ws.parent[s] < 0 {
					// Reachable by OSPF weight (the scaling pass routed it)
					// but not under these lengths: some δ/c overflowed.
					return phases, trees, ErrUnroutable
				}
				// The tree carries the path's bottleneck, so each chunk
				// walks the path once.
				for rem := col[s]; rem > 1e-15; {
					f := rem // math.Min(rem, bott[s]): neither is NaN here
					if ws.bott[s] < f {
						f = ws.bott[s]
					}
					for u := s; u != t; {
						id := ws.parent[u]
						row[id] += f
						dl := length[id] * eps * f / capacity[id]
						length[id] += dl
						sumLC += dl * capacity[id]
						u = a.to[id]
					}
					rem -= f
				}
			}
		}
		phases++
		for i, f := range ws.phase {
			ws.done[i] += f
			ws.phase[i] = 0
		}
	}
	return phases, trees, nil
}

// zeroed returns a zeroed slice of length n, reusing s's array when it is
// large enough.
func zeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// tree computes the shortest-path tree toward t under the given edge
// lengths within t's DAG: one reverse pass over the topological order, every
// DAG successor of a node being final by the time the node is reached (the
// pass of oblivious.distTable). parent[u] is the first edge in g.Out(u)
// order that reaches the minimum (-1 if unreachable or t itself) and bott[u]
// the least capacity on u's tree path.
func (a *Approx) tree(ws *workspace, t int32, length []float64) {
	dist, parent, bott := ws.dist, ws.parent, ws.bott
	dag := a.dags[t]
	for i := len(dag.Order) - 1; i >= 0; i-- {
		u := dag.Order[i]
		best, p, b := math.Inf(1), int32(-1), math.Inf(1)
		if int32(u) == t {
			best = 0
		} else {
			for _, id := range dag.OutEdges(a.g, u) {
				if d := dist[a.to[id]] + length[id]; d < best {
					best, p = d, int32(id)
				}
			}
			if p >= 0 {
				b = min(a.cap[p], bott[a.to[p]])
			}
		}
		dist[u], parent[u], bott[u] = best, p, b
	}
}
