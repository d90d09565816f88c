package localsearch

import (
	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/spf"
)

// evaluator is the search's ECMP state under the working graph's current
// weights: per destination the shortest-path tree, DAG membership and
// topological order, and per (critical matrix, destination) the load row.
// A move rebuilds only the destinations its link can affect
// (spf.Tree.UnaffectedBy) into spare rows, which commit swaps in and revert
// drops. Every number is the one pdrouting.Uniform over dagx.BuildAll(g,
// dagx.ShortestPath) would give, bit for bit: the rows come from the same
// Dijkstra, membership test and Kahn order, and the loads propagate and sum
// in the same order as Routing.MaxUtilization.
type evaluator struct {
	g     *graph.Graph
	cur   []*destState  // indexed by destination; a pending move's rows are already in
	spare []*destState  // the other buffer per destination: a move builds into it, then swaps
	cols  [][][]float64 // cols[k][t]: matrix k's demand toward t, nil when it has none

	pending  []graph.NodeID // destinations the pending move rebuilt, now swapped into cur
	movedID  graph.EdgeID   // the pending move's edge and its old weight
	movedOld float64

	moves, rebuilds uint64 // moves tried and destinations they rebuilt

	// Scratch.
	heap   *spf.Heap
	indeg  []int32
	inflow []float64
	total  []float64
	coeff  []float64 // worstCaseDM's load coefficients, [(t·n+s)·|E| + e]
}

// destState is one destination's rows.
type destState struct {
	tree   spf.Tree
	member []bool
	order  []graph.NodeID
	loads  [][]float64 // loads[k]: critical matrix k's load row toward this destination
}

func newDestState(n, m int) *destState {
	return &destState{
		tree:   spf.Tree{Dist: make([]float64, n)},
		member: make([]bool, m),
		order:  make([]graph.NodeID, 0, n),
	}
}

// newEvaluator builds every destination's rows for g, which the evaluator
// then owns: moves change its weights through try.
func newEvaluator(g *graph.Graph) *evaluator {
	n, m := g.NumNodes(), g.NumEdges()
	ev := &evaluator{
		g:      g,
		cur:    make([]*destState, n),
		spare:  make([]*destState, n),
		heap:   spf.NewHeap(n),
		indeg:  make([]int32, n),
		inflow: make([]float64, n),
		total:  make([]float64, m),
	}
	for t := range ev.cur {
		ev.cur[t], ev.spare[t] = newDestState(n, m), newDestState(n, m)
		ev.build(graph.NodeID(t), ev.cur[t])
	}
	return ev
}

// build recomputes s as destination t's shortest-path rows under the
// current weights, load rows included.
func (ev *evaluator) build(t graph.NodeID, s *destState) {
	s.tree.Dst = t
	spf.ToDestinationInto(ev.g, t, s.tree.Dist, ev.heap)
	s.tree.ShortestPathEdgesInto(s.member, ev.g)
	s.order, _ = dagx.TopoOrderInto(s.order, ev.indeg, ev.g, s.member)
	for k, cols := range ev.cols {
		if cols[t] != nil {
			ev.destLoads(s, t, cols[t], s.loads[k])
		}
	}
}

// addMatrix adds dm to the critical set and computes its load rows.
func (ev *evaluator) addMatrix(dm *demand.Matrix) {
	m := ev.g.NumEdges()
	cols := make([][]float64, len(ev.cur))
	for t, s := range ev.cur {
		col := dm.ToDestination(graph.NodeID(t))
		var row, spareRow []float64
		for _, v := range col {
			if v > 0 {
				cols[t], row, spareRow = col, make([]float64, m), make([]float64, m)
				ev.destLoads(s, graph.NodeID(t), col, row)
				break
			}
		}
		s.loads = append(s.loads, row)
		ev.spare[t].loads = append(ev.spare[t].loads, spareRow)
	}
	ev.cols = append(ev.cols, cols)
}

// destLoads writes into loads the ECMP flow that demand column col places
// on every edge toward t — Routing.DestLoadsInto over the uniform split of
// s's DAG, with the same operations in the same order.
func (ev *evaluator) destLoads(s *destState, t graph.NodeID, col, loads []float64) {
	clear(loads)
	inflow := ev.inflow
	copy(inflow, col)
	inflow[t] = 0
	for _, u := range s.order {
		if u == t || inflow[u] == 0 {
			continue
		}
		out := ev.g.Out(u)
		deg := 0
		for _, id := range out {
			if s.member[id] {
				deg++
			}
		}
		share := 1 / float64(deg)
		for _, id := range out {
			if !s.member[id] {
				continue
			}
			f := inflow[u] * share
			if f == 0 {
				continue
			}
			loads[id] += f
			inflow[ev.g.Edge(id).To] += f
		}
	}
}

// value is the worst ECMP utilization over the critical set under the held
// rows: Routing.MaxUtilization per matrix, its destination loads summed in
// destination order.
func (ev *evaluator) value() float64 {
	worst := 0.0
	for k, cols := range ev.cols {
		total := ev.total
		clear(total)
		for t, s := range ev.cur {
			if cols[t] == nil {
				continue
			}
			for e, l := range s.loads[k] {
				total[e] += l
			}
		}
		mx := 0.0
		for e, l := range total {
			if u := l / ev.g.Edge(graph.EdgeID(e)).Capacity; u > mx {
				mx = u
			}
		}
		if mx > worst {
			worst = mx
		}
	}
	return worst
}

// try sets link id (both directions) to weight w, rebuilds the destinations
// that change, and returns the candidate value. The move stays pending until
// commit or revert.
func (ev *evaluator) try(id graph.EdgeID, w float64) float64 {
	e := ev.g.Edge(id)
	ev.movedID, ev.movedOld = id, e.Weight
	ev.pending = ev.pending[:0]
	for t, s := range ev.cur {
		if s.tree.UnaffectedBy(e, w) && (e.Reverse < 0 || s.tree.UnaffectedBy(ev.g.Edge(e.Reverse), w)) {
			continue
		}
		ev.pending = append(ev.pending, graph.NodeID(t))
	}
	ev.g.SetLinkWeight(id, w)
	for _, t := range ev.pending {
		ev.build(t, ev.spare[t])
		ev.cur[t], ev.spare[t] = ev.spare[t], ev.cur[t]
	}
	ev.moves++
	ev.rebuilds += uint64(len(ev.pending))
	return ev.value()
}

// commit keeps the pending move.
func (ev *evaluator) commit() { ev.pending = ev.pending[:0] }

// revert restores the pending move's weight and its destinations' rows.
func (ev *evaluator) revert() {
	ev.g.SetLinkWeight(ev.movedID, ev.movedOld)
	for _, t := range ev.pending {
		ev.cur[t], ev.spare[t] = ev.spare[t], ev.cur[t]
	}
	ev.pending = ev.pending[:0]
}

// worstCaseDM finds the demand matrix in the box that maximizes ECMP's link
// utilization under the current weights (the WORSTCASEDM subroutine).
// Because link loads are linear in the demands for a fixed routing, the
// maximum sits at a box corner identifiable per link from the
// load-coefficient signs (Routing.LoadCoeffs, computed from the held rows).
func (ev *evaluator) worstCaseDM(box *demand.Box) (*demand.Matrix, float64) {
	g := ev.g
	n, m := g.NumNodes(), g.NumEdges()
	if ev.coeff == nil {
		ev.coeff = make([]float64, n*n*m)
	}
	unit := make([]float64, n)
	for t, d := range ev.cur {
		for s := 0; s < n; s++ {
			if s != t {
				unit[s] = 1
				ev.destLoads(d, graph.NodeID(t), unit, ev.coeff[(t*n+s)*m:(t*n+s+1)*m])
				unit[s] = 0
			}
		}
	}
	bestUtil, bestE := -1.0, -1
	for e := 0; e < m; e++ {
		util := 0.0
		for s := 0; s < n; s++ {
			for t := 0; t < n; t++ {
				if s == t {
					continue
				}
				if c := ev.coeff[(t*n+s)*m+e]; c > 0 {
					util += c * box.Max.At(graph.NodeID(s), graph.NodeID(t))
				}
			}
		}
		util /= g.Edge(graph.EdgeID(e)).Capacity
		if util > bestUtil {
			bestUtil, bestE = util, e
		}
	}
	if bestE < 0 {
		return nil, bestUtil
	}
	return box.Corner(func(s, t graph.NodeID) bool { return ev.coeff[(int(t)*n+int(s))*m+bestE] > 0 }), bestUtil
}
