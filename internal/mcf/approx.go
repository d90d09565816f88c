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
	mApproxFloored = obs.Default.NewCounter("coyote_mcf_fptas_floored_pairs_total",
		"Demand pairs left unrouted because their scaled demand is at or under the routing floor, summed over solves.")
)

// routeFloor is the scaled demand below which the FPTAS routes nothing more:
// a phase stops routing a demand once what remains of it is at or under it.
const routeFloor = 1e-15

// errBelowFloor reports a solve whose demand scaling left every demand at or
// under routeFloor — capacities so far apart that the scaling pass shrank
// the matrix to nothing — so no phase could route anything.
var errBelowFloor = errors.New("mcf: every demand scales to below the FPTAS routing floor (capacities too far apart)")

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
	cap    []float64
	weight []float64 // OSPF weights: the lengths of the demand-scaling pass
	// The reverse topological pass of every destination, flattened (DESIGN.md
	// §12): pass[t·n:(t+1)·n] lists every node in the reverse of t's DAG
	// order, and node pass[i].node's member out-edges, in g.Out order, are
	// arcs[pass[i-1].end:pass[i].end] (from 0 for i = 0; none for t).
	pass []passNode
	arcs []arc
	pool sync.Pool // *workspace
}

// passNode is one step of a destination's reverse topological pass.
type passNode struct{ node, end int32 }

// arc is a DAG member edge with its head.
type arc struct{ edge, head int32 }

// workspace is the mutable state of one solve, recycled through
// Approx.pool so a steady-state solve allocates nothing.
type workspace struct {
	dist   []float64
	parent []int32   // first edge of the shortest path to the tree's root, or -1
	next   []int32   // the head of parent[u]: u's next hop toward the root
	bott   []float64 // least capacity on the tree path to the root
	length []float64 // the multiplicative-weights edge lengths
	loads  []float64 // single-path edge loads of the scaling pass
	dests  []int32   // destinations with demand
	// One row per entry of dests: the demand column toward it (n wide) and
	// its edge flows from completed phases (m wide). The done rows stay per
	// destination because the final loads sum them in destination order;
	// phase is the one m-wide row of the destination being routed.
	col, done, phase []float64
}

// NewApprox indexes g restricted to dags, one DAG per destination (as
// dagx.BuildAll returns them).
func NewApprox(g *graph.Graph, dags []*dagx.DAG) *Approx {
	n, m := g.NumNodes(), g.NumEdges()
	a := &Approx{
		n: n, m: m,
		cap:    make([]float64, m),
		weight: make([]float64, m),
		pass:   make([]passNode, 0, n*n),
	}
	arcs := 0
	for _, dag := range dags {
		arcs += dag.NumEdges()
	}
	a.arcs = make([]arc, 0, arcs)
	for _, e := range g.Edges() {
		a.cap[e.ID], a.weight[e.ID] = e.Capacity, e.Weight
	}
	for t, dag := range dags {
		for i := len(dag.Order) - 1; i >= 0; i-- {
			u := dag.Order[i]
			if int(u) != t {
				for _, id := range dag.OutEdges(g, u) {
					a.arcs = append(a.arcs, arc{int32(id), int32(g.Edge(id).To)})
				}
			}
			a.pass = append(a.pass, passNode{int32(u), int32(len(a.arcs))})
		}
	}
	a.pool.New = func() any {
		// The fixed-size rows share two arrays: one allocation per type.
		f, i := make([]float64, 2*n+3*m), make([]int32, 2*n)
		return &workspace{
			dist:   f[:n:n],
			bott:   f[n : 2*n : 2*n],
			length: f[2*n : 2*n+m : 2*n+m],
			loads:  f[2*n+m : 2*n+2*m : 2*n+2*m],
			phase:  f[2*n+2*m:],
			parent: i[:n:n],
			next:   i[n:],
			dests:  make([]int32, 0, n),
			col:    make([]float64, 0, n*n),
		}
	}
	return a
}

// MinMLUApprox approximates min-MLU with a Garg–Könemann/Fleischer
// multiplicative-weights scheme, aggregating commodities per destination
// (one shortest-path tree per destination per phase). The returned flow
// stays inside the DAGs, so it is acyclic per destination (convertible to
// splitting ratios), and routes every pair of D except those whose demand,
// scaled so one shortest-path routing has MLU 1, is at or under a 1e-15
// floor; such pairs are dropped and counted in
// coyote_mcf_fptas_floored_pairs_total. Its utilization lies in
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
		floored := a.loadColumns(ws, D, scale)
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
		mApproxFloored.Add(uint64(floored))
		return mlu / scale, flows, nil
	}
	return 0, nil, errors.New("mcf: approximation failed to complete a phase")
}

// loadColumns fills the workspace with the demand columns of D times scale,
// one row per destination that still has a positive entry after scaling. It
// returns how many pairs with demand scale to at or under routeFloor: the
// pairs no phase routes.
func (a *Approx) loadColumns(ws *workspace, D *demand.Matrix, scale float64) (floored int) {
	n := a.n
	ws.dests = ws.dests[:0]
	ws.col = ws.col[:0]
	for t := 0; t < n; t++ {
		base := len(ws.col)
		any := false
		for s := 0; s < n; s++ {
			d := D.D[s*n+t] * scale
			any = any || d > 0
			if d <= routeFloor && s != t && D.D[s*n+t] > 0 {
				floored++
			}
			ws.col = append(ws.col, d)
		}
		if any {
			ws.dests = append(ws.dests, int32(t))
		} else {
			ws.col = ws.col[:base]
		}
	}
	return floored
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
			for u := s; u != t; u = ws.next[u] {
				ws.loads[ws.parent[u]] += col[s]
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
	ws.done = zeroed(ws.done, len(ws.dests)*m)
	length, capacity, row := ws.length, a.cap, ws.phase
	clear(row) // an ErrUnroutable return leaves a destination's flows behind

	delta := (1 + eps) * math.Pow((1+eps)*float64(m), -1/eps)
	sumLC := 0.0 // Σ l(e)·c(e)
	for e := range length {
		length[e] = delta / capacity[e]
		sumLC += delta
	}
	const maxPhases = 200000
	routed := false // some chunk has been routed
	for sumLC < 1 && phases < maxPhases {
		for k, t := range ws.dests {
			a.tree(ws, t, length)
			trees++
			col := ws.col[k*n : (k+1)*n]
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
				for rem := col[s]; rem > routeFloor; {
					f := rem // math.Min(rem, bott[s]): neither is NaN here
					if ws.bott[s] < f {
						f = ws.bott[s]
					}
					for u := s; u != t; u = ws.next[u] {
						id := ws.parent[u]
						row[id] += f
						dl := length[id] * eps * f / capacity[id]
						length[id] += dl
						sumLC += dl * capacity[id]
					}
					rem -= f
					routed = true
				}
			}
			// Nothing reads t's flows of this phase before the phase ends,
			// so they join its completed-phase row now. Only tree edges
			// carry any: every other entry of row is 0, and adding +0
			// leaves done's bits alone.
			done := ws.done[k*m : (k+1)*m]
			for _, id := range ws.parent {
				if id >= 0 {
					done[id] += row[id]
					row[id] = 0
				}
			}
		}
		if !routed {
			// Every demand is at or under the floor: no phase can route
			// anything or move the lengths.
			return phases, trees, errBelowFloor
		}
		phases++
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
// order that reaches the minimum (-1 if unreachable or t itself), next[u]
// its head and bott[u] the least capacity on u's tree path.
func (a *Approx) tree(ws *workspace, t int32, length []float64) {
	dist, parent, next, bott := ws.dist, ws.parent, ws.next, ws.bott
	lo := int32(0)
	if t > 0 {
		lo = a.pass[int(t)*a.n-1].end
	}
	for _, pn := range a.pass[int(t)*a.n : int(t+1)*a.n] {
		best, p, h, b := math.Inf(1), int32(-1), int32(-1), math.Inf(1)
		if pn.node == t {
			best = 0
		} else {
			for _, e := range a.arcs[lo:pn.end] {
				if d := dist[e.head] + length[e.edge]; d < best {
					best, p, h = d, e.edge, e.head
				}
			}
			if p >= 0 {
				b = min(a.cap[p], bott[h])
			}
		}
		lo = pn.end
		u := pn.node
		dist[u], parent[u], next[u], bott[u] = best, p, h, b
	}
}
