// Package mcf computes demands-aware optimal routings: the minimum maximum
// link utilization (min-MLU) multicommodity flow that the paper denotes
// OPTU(D) (§III), optionally restricted to a given set of per-destination
// DAGs (the "demands-aware optimum within the same DAGs" that normalizes
// every figure in §VI).
//
// Destination-based min-MLU equals the destination-aggregated
// multicommodity optimum: flows toward a common destination can be merged,
// and any cycles in the aggregate can be cancelled without increasing link
// loads, leaving an in-DAG flow realizable by splitting ratios.
//
// Two solvers are provided: an exact LP formulation (package lp) and a
// Garg–Könemann/Fleischer-style fully polynomial approximation scheme
// (approx.go: an allocation-free kernel over a per-(graph, DAGs) index). The
// FPTAS replaces the paper's external LP solver on the hot evaluation path;
// tests cross-validate the two on small instances.
package mcf

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/lp"
)

// ErrUnroutable indicates some positive demand has no path to its
// destination within the allowed edges.
var ErrUnroutable = errors.New("mcf: demand has no path within the allowed edge set")

// allowedEdges returns the usable-edge membership vector for destination t:
// the DAG's member set if dags is non-nil, every edge otherwise.
func allowedEdges(g *graph.Graph, dags []*dagx.DAG, t graph.NodeID) []bool {
	if dags != nil {
		return dags[t].Member
	}
	all := make([]bool, g.NumEdges())
	for i := range all {
		all[i] = true
	}
	return all
}

// MinMLUExact solves min-MLU exactly with the sparse revised-simplex
// solver from the all-logical basis. It returns the optimal utilization and
// the per-destination edge flows (flows[t][e]; nil rows for destinations
// without demand). When dags is non-nil, flows are restricted to each
// destination's DAG.
func MinMLUExact(g *graph.Graph, dags []*dagx.DAG, D *demand.Matrix) (float64, [][]float64, error) {
	if D.Total() == 0 {
		return 0, make([][]float64, g.NumNodes()), nil
	}
	mlu, flows, _, err := NewMinMLUModel(g, dags, D).Solve(nil)
	return mlu, flows, err
}

// MinMLUModel is the exact min-MLU LP kept mutable between solves: callers
// edit demand RHS values in place (SetDemand, SetDemands) and re-solve —
// SolveMLU from the crash basis of the demands it now holds (CrashBasis),
// Solve from whichever basis the caller hands it, the crash basis included,
// or the all-logical one. A model re-targeted to D solves
// exactly as a model freshly built for D does, provided D has the active
// destination set the model was shaped on (ShapedFor): the LP is then the
// same matrix, bounds and costs, and the crash basis the same statuses. The
// row/variable maps are exported so tests and tools can address the
// formulation directly.
type MinMLUModel struct {
	Model *lp.Model
	// Alpha is the MLU variable (the objective).
	Alpha int
	// VarOf[t][e] is the LP variable carrying flow toward destination t on
	// edge e, or −1 (destination inactive or edge outside its DAG).
	VarOf [][]int
	// DemandRow[t][v] is the conservation row "out − in = d_vt" at node
	// v ≠ t for active destination t, or −1.
	DemandRow [][]int
	// CapRow[e] is edge e's capacity row "Σ_t flow − α·c_e ≤ 0", or −1
	// when no destination may use the edge.
	CapRow []int

	g      *graph.Graph
	active []bool
	// dem holds the demands the conservation rows were last set to, n×n
	// row-major like demand.Matrix.D.
	dem []float64

	// The crash start (CrashBasis). tree[t·n+v] is the edge leaving v in
	// destination t's BFS in-tree inside t's allowed edges, −1 when v cannot
	// reach t there; order[t] lists the nodes the tree reaches, nearest to t
	// first. crash is the status buffer the tree vertex is written into; load
	// (per edge) and sub (per node) are its scratch.
	tree  []int32
	order [][]int32
	crash lp.Basis
	load  []float64
	sub   []float64
}

// NewMinMLUModel builds the min-MLU LP for the demands D. The active
// destination set (columns of D with traffic) fixes the formulation shape;
// SetDemand may later move demand only toward destinations active here.
func NewMinMLUModel(g *graph.Graph, dags []*dagx.DAG, D *demand.Matrix) *MinMLUModel {
	n := g.NumNodes()
	prob := lp.NewModel(lp.Minimize)
	mm := &MinMLUModel{
		Model:     prob,
		Alpha:     prob.AddVar(0, lp.Inf, 1),
		VarOf:     make([][]int, n),
		DemandRow: make([][]int, n),
		CapRow:    make([]int, g.NumEdges()),
		g:         g,
		active:    make([]bool, n),
		dem:       append([]float64(nil), D.D...),
		tree:      make([]int32, n*n),
		order:     make([][]int32, n),
		load:      make([]float64, g.NumEdges()),
		sub:       make([]float64, n),
	}
	orders := make([]int32, 0, n*n)
	for t := 0; t < n; t++ {
		mm.active[t] = destActive(D, t)
		if !mm.active[t] {
			continue
		}
		col := D.ToDestination(graph.NodeID(t))
		allowed := allowedEdges(g, dags, graph.NodeID(t))
		mm.order[t], orders = inTree(g, allowed, t, mm.tree[t*n:(t+1)*n], orders)
		mm.VarOf[t] = make([]int, g.NumEdges())
		for e := range mm.VarOf[t] {
			if allowed[e] {
				mm.VarOf[t][e] = prob.AddVars(1)
			} else {
				mm.VarOf[t][e] = -1
			}
		}
		// Flow conservation at every v != t: out - in = d_vt.
		mm.DemandRow[t] = make([]int, n)
		for v := range mm.DemandRow[t] {
			mm.DemandRow[t][v] = -1
		}
		for v := 0; v < n; v++ {
			if v == t {
				continue
			}
			var terms []lp.Term
			for _, id := range g.Out(graph.NodeID(v)) {
				if mm.VarOf[t][id] >= 0 {
					terms = append(terms, lp.Term{Var: mm.VarOf[t][id], Coeff: 1})
				}
			}
			for _, id := range g.In(graph.NodeID(v)) {
				if mm.VarOf[t][id] >= 0 {
					terms = append(terms, lp.Term{Var: mm.VarOf[t][id], Coeff: -1})
				}
			}
			mm.DemandRow[t][v] = prob.AddEQ(terms, col[v])
		}
	}
	// Capacity: sum_t flow_t(e) <= alpha * c_e.
	for _, e := range g.Edges() {
		mm.CapRow[e.ID] = -1
		terms := []lp.Term{{Var: mm.Alpha, Coeff: -e.Capacity}}
		for t := 0; t < n; t++ {
			if mm.active[t] && mm.VarOf[t][e.ID] >= 0 {
				terms = append(terms, lp.Term{Var: mm.VarOf[t][e.ID], Coeff: 1})
			}
		}
		if len(terms) > 1 {
			mm.CapRow[e.ID] = prob.AddLE(terms, 0)
		}
	}
	mm.crash = lp.Basis{
		NumVars: prob.NumVars(),
		NumRows: prob.NumRows(),
		Status:  make([]int8, prob.NumVars()+prob.NumRows()),
	}
	return mm
}

// inTree builds destination t's BFS in-tree over the allowed edges: it sets
// parent[v] to the edge v forwards on (−1 for t and for nodes that cannot
// reach t) and appends the nodes it reaches, nearest first, to arena,
// returning them as their own slice and the grown arena.
func inTree(g *graph.Graph, allowed []bool, t int, parent []int32, arena []int32) (order, grown []int32) {
	for v := range parent {
		parent[v] = -1
	}
	start := len(arena)
	arena = append(arena, int32(t))
	for head := start; head < len(arena); head++ {
		for _, id := range g.In(graph.NodeID(arena[head])) {
			if v := g.Edge(id).From; allowed[id] && int(v) != t && parent[v] < 0 {
				parent[v] = int32(id)
				arena = append(arena, int32(v))
			}
		}
	}
	return arena[start+1 : len(arena) : len(arena)], arena
}

// destActive reports whether any demand of D heads for t — what makes t's
// variables and conservation rows part of the formulation.
func destActive(D *demand.Matrix, t int) bool {
	for s := 0; s < D.N; s++ {
		if D.D[s*D.N+t] > 0 {
			return true
		}
	}
	return false
}

// ShapedFor reports whether the model's active destination set is exactly
// D's, i.e. whether NewMinMLUModel on D would build this formulation.
func (mm *MinMLUModel) ShapedFor(D *demand.Matrix) bool {
	if D.N != len(mm.active) {
		return false
	}
	for t, a := range mm.active {
		if a != destActive(D, t) {
			return false
		}
	}
	return true
}

// SetDemands re-targets the model to the demands D by editing every
// conservation row's RHS in place. D may leave destinations of the model
// without demand, but must send none toward a destination that was inactive
// at construction time.
func (mm *MinMLUModel) SetDemands(D *demand.Matrix) error {
	n := len(mm.active)
	if D.N != n {
		return fmt.Errorf("mcf: %d-node demand matrix for a %d-node formulation", D.N, n)
	}
	for t := 0; t < n; t++ {
		if !mm.active[t] && destActive(D, t) {
			return fmt.Errorf("mcf: destination %d inactive in this formulation", t)
		}
	}
	copy(mm.dem, D.D)
	for t := 0; t < n; t++ {
		if !mm.active[t] {
			continue
		}
		for v := 0; v < n; v++ {
			if v != t {
				d := D.D[v*n+t]
				mm.Model.SetRowBounds(mm.DemandRow[t][v], d, d)
			}
		}
	}
	return nil
}

// SetDemand moves the demand from s toward t to d by editing the
// conservation row's RHS in place; the next CrashBasis routes the new
// demand. The destination must have been active at construction time.
func (mm *MinMLUModel) SetDemand(s, t graph.NodeID, d float64) error {
	if int(t) >= len(mm.DemandRow) || mm.DemandRow[t] == nil {
		return fmt.Errorf("mcf: destination %d inactive in this formulation", t)
	}
	r := mm.DemandRow[t][s]
	if r < 0 {
		return fmt.Errorf("mcf: no conservation row for %d→%d", s, t)
	}
	mm.Model.SetRowBounds(r, d, d)
	mm.dem[int(s)*len(mm.active)+int(t)] = d
	return nil
}

// SolveMLU solves for the optimal utilization alone — what a normalization
// needs, without Solve's flow unpacking — starting from the crash basis of
// the demands the model holds (CrashBasis), so phase 1 has nothing to do.
// The solve is a function of those demands alone: no basis is taken or
// returned. An lp.solve span is recorded under ctx when it carries a tracer.
func (mm *MinMLUModel) SolveMLU(ctx context.Context) (float64, error) {
	mlu, status, err := mm.Model.SolveObjective(ctx, &lp.SolveOptions{Basis: mm.CrashBasis()})
	if err != nil {
		return 0, fmt.Errorf("mcf: %w", err)
	}
	if status != lp.Optimal {
		return math.Inf(1), ErrUnroutable
	}
	return mlu, nil
}

// CrashBasis writes the tree vertex of the demands the model holds into the
// model's crash buffer and returns it: every demand routed along its
// destination's in-tree (tree columns basic), α basic at that routing's MLU
// with the bottleneck capacity row tight (the lowest edge ID on a tie) and
// every other capacity slack basic, conservation logicals nonbasic at their
// RHS except at the nodes that cannot reach their destination, whose
// zero-demand rows keep their logical basic. The vertex is primal feasible, so a solve from it
// runs no phase 1. It returns nil when a positive demand has no tree path;
// the all-logical start then proves the model infeasible (ErrUnroutable).
// The basis is the model's own buffer: the next CrashBasis overwrites it.
func (mm *MinMLUModel) CrashBasis() *lp.Basis {
	n := len(mm.active)
	nv := mm.Model.NumVars()
	status, logical := mm.crash.Status[:nv], mm.crash.Status[nv:]
	for j := range status {
		status[j] = lp.BasisLower
	}
	clear(mm.load)
	for t, order := range mm.order {
		if !mm.active[t] {
			continue
		}
		parent := mm.tree[t*n : (t+1)*n]
		for v := range mm.sub {
			mm.sub[v] = mm.dem[v*n+t]
			if v == t {
				continue
			}
			switch {
			case parent[v] >= 0:
				logical[mm.DemandRow[t][v]] = lp.BasisLower
			case mm.sub[v] > 0:
				return nil
			default:
				logical[mm.DemandRow[t][v]] = lp.BasisBasic
			}
		}
		// Farthest first: a node's subtree has forwarded into it before it
		// forwards the sum.
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			e := parent[v]
			f := mm.sub[v]
			mm.sub[mm.g.Edge(graph.EdgeID(e)).To] += f
			mm.load[e] += f
			status[mm.VarOf[t][e]] = lp.BasisBasic
		}
	}
	bottleneck, peak := -1, -1.0
	for e, r := range mm.CapRow {
		if r < 0 {
			continue
		}
		logical[r] = lp.BasisBasic
		if u := mm.load[e] / mm.g.Edge(graph.EdgeID(e)).Capacity; u > peak {
			bottleneck, peak = e, u
		}
	}
	if bottleneck < 0 {
		return nil
	}
	logical[mm.CapRow[bottleneck]] = lp.BasisUpper
	status[mm.Alpha] = lp.BasisBasic
	return &mm.crash
}

// Lengths writes the dual certificate of the solve that just finished into z
// (one entry per edge): the capacity-row multipliers z_e = −y[CapRow[e]],
// clamped at 0 and scaled to Σ z_e·c_e = 1. With in-DAG distances under z,
// Σ D_st·dist_z(s,t) is a lower bound on the min-MLU of any matrix D over the
// same DAGs (CheckDual), and equals the optimum at the matrix just solved.
// It reads the model's workspace without copying and reports false when the
// last solve left no optimal vertex or no positive length.
func (mm *MinMLUModel) Lengths(z []float64) bool {
	y := mm.Model.RowDuals()
	if y == nil {
		return false
	}
	sum := 0.0
	for _, e := range mm.g.Edges() {
		z[e.ID] = 0
		if r := mm.CapRow[e.ID]; r >= 0 && y[r] < 0 {
			z[e.ID] = -y[r]
			sum += z[e.ID] * e.Capacity
		}
	}
	if !(sum > 0) {
		return false
	}
	for e := range z {
		z[e] /= sum
	}
	return true
}

// CheckDual verifies from first principles that (z, w) is a feasible point of
// the min-MLU dual over the DAGs: z ≥ 0, Σ z_e·c_e ≤ 1, and
// w(from, t) − w(to, t) ≤ z_e on every edge destination t may use, with
// w(t, t) = 0 — the point whose objective Σ D_st·w(s, t) bounds the min-MLU
// of D from below by weak duality. Destinations with active[t] false are
// skipped (nil checks all); a +Inf potential marks a node that cannot reach
// t. tol is the absolute slack allowed on each condition.
func CheckDual(g *graph.Graph, dags []*dagx.DAG, active []bool, z []float64, w func(v, t graph.NodeID) float64, tol float64) error {
	sumZC := 0.0
	for _, e := range g.Edges() {
		if z[e.ID] < -tol {
			return fmt.Errorf("mcf: dual infeasible: z[%d] = %g < 0", e.ID, z[e.ID])
		}
		sumZC += z[e.ID] * e.Capacity
	}
	if sumZC > 1+tol {
		return fmt.Errorf("mcf: dual infeasible: Σ z·c = %g > 1", sumZC)
	}
	for t := 0; t < g.NumNodes(); t++ {
		if active != nil && !active[t] {
			continue
		}
		dst := graph.NodeID(t)
		if w0 := w(dst, dst); w0 != 0 {
			return fmt.Errorf("mcf: dual infeasible: destination %d has potential %g at itself", t, w0)
		}
		allowed := allowedEdges(g, dags, dst)
		for _, e := range g.Edges() {
			if !allowed[e.ID] {
				continue
			}
			// Both ends unreachable gives NaN, which passes: the constraint
			// is vacuous there.
			if excess := w(e.From, dst) - w(e.To, dst) - z[e.ID]; excess > tol {
				return fmt.Errorf("mcf: dual infeasible: destination %d edge %d violates w_from − w_to ≤ z by %g", t, e.ID, excess)
			}
		}
	}
	return nil
}

// Solve runs the LP with the given options (typically a carried Basis) and
// unpacks the solution into MLU and per-destination edge flows. A basis from
// a solve of the same shape (graph, DAGs and active destinations) warm-starts
// it; nil, or a basis that no longer fits, starts it from the all-logical
// basis. The optimum never depends on the basis; only the pivot path, and on
// a degenerate LP the optimal vertex reached, do. The solve is untraced.
func (mm *MinMLUModel) Solve(opts *lp.SolveOptions) (float64, [][]float64, *lp.Basis, error) {
	sol, err := mm.Model.Solve(context.Background(), opts)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("mcf: %w", err)
	}
	if sol.Status != lp.Optimal {
		return math.Inf(1), nil, nil, ErrUnroutable
	}
	n := mm.g.NumNodes()
	flows := make([][]float64, n)
	for t := 0; t < n; t++ {
		if !mm.active[t] {
			continue
		}
		flows[t] = make([]float64, mm.g.NumEdges())
		for e := range flows[t] {
			if mm.VarOf[t][e] >= 0 {
				flows[t][e] = sol.X[mm.VarOf[t][e]]
			}
		}
	}
	return sol.Objective, flows, sol.Basis, nil
}
