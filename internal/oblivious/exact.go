package oblivious

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/lp"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/pdrouting"
)

// PerfExact computes PERF(r, Box) exactly, over the whole box and not only
// its corners, by Kelley's cutting planes on the dual-length tables
// (DESIGN.md §2.5). Link by link, a Dinkelbach step of the master LP at θ,
// the best exact ratio so far, proves the link bounded by θ or finds a matrix
// D* above it, whose exact separation may raise θ and adds a cut unless the
// pool's bound at D* is tight. The pool starts as a copy of the ring, or from
// a separation at Box.Max when the ring is empty; PerfExact writes neither
// the ring nor the OPTDAG cache. Under a tracer it records an
// oblivious.perf_exact span over its lp.solve spans.
func (ev *Evaluator) PerfExact(ctx context.Context, r *pdrouting.Routing) (Result, error) {
	ctx, span := obs.StartSpan(ctx, "oblivious.perf_exact")
	defer span.End()
	g, n := ev.G, ev.G.NumNodes()
	m := &cutMaster{ev: ev, model: lp.NewModel(lp.Maximize), z: make([]float64, g.NumEdges())}

	// Pairs no DAG path serves (+Inf under zero lengths) are fixed at 0.
	reach := make([]float64, n*n)
	distTable(g, ev.DAGs, m.z, reach)
	seed := demand.NewMatrix(n)
	for i, hi := range ev.Box.Max.D {
		if i/n == i%n || reach[i] != 0 || hi <= 0 {
			m.model.AddVar(0, 0, 0)
			continue
		}
		m.pairs = append(m.pairs, i)
		m.model.AddVar(ev.Box.Min.D[i], hi, 0)
		seed.D[i] = hi
	}
	m.s = m.model.AddVar(0, lp.Inf, 0)
	m.basis = &lp.Basis{NumVars: m.s + 1, Status: make([]int8, m.s+1)} // all at lower bounds
	for _, tbl := range ev.cache.bounds.live() {
		m.addCut(tbl)
	}
	if len(m.pool) == 0 {
		if _, _, err := m.separate(ctx, seed); err != nil {
			return Result{}, err
		}
	}

	// The loaded links, in descending ratio at the corner that maximizes
	// their load, so that the best exact ratio, which drops links, rises
	// early.
	type link struct {
		a   []float64
		key float64
	}
	C := r.LoadCoeffs(nil)
	var links []link
	for e := 0; e < g.NumEdges(); e++ {
		l := link{a: make([]float64, n*n)}
		for _, i := range m.pairs {
			l.a[i] = C[e*n*n+i] / g.Edge(graph.EdgeID(e)).Capacity
		}
		corner := ev.Box.Corner(func(s, t graph.NodeID) bool { return l.a[int(s)*n+int(t)] > 0 })
		if l.key = tableBound(l.a, corner) / m.bound(corner); l.key > 0 {
			links = append(links, l)
		}
	}
	slices.SortStableFunc(links, func(x, y link) int { return cmp.Compare(y.key, x.key) })

	var best Result
	for _, l := range links {
		for {
			D, err := m.step(ctx, l.a, best.Ratio)
			if err != nil {
				return Result{}, err
			} else if D == nil {
				break
			}
			v, cut, err := m.separate(ctx, D)
			if err != nil {
				return Result{}, err
			}
			if mxlu := tableBound(l.a, D); mxlu/v > best.Ratio {
				best = Result{Ratio: mxlu / v, WorstDM: D, MxLU: mxlu, Norm: v}
			} else if !cut {
				break
			}
		}
	}
	span.Attr("separations", m.separations).Attr("pool", len(m.pool)).Attr("ratio", best.Ratio)
	return best, nil
}

// cutMaster is PerfExact's master LP. Variable i is the matrix entry D.D[i],
// ranging over the box on the pairs and fixed at 0 elsewhere; variable s
// follows them, and row k says s ≥ T_k·D for table k of the pool.
type cutMaster struct {
	ev          *Evaluator
	model       *lp.Model
	s           int
	pairs       []int       // the entries that range over the box
	pool        [][]float64 // the tables, one per row
	basis       *lp.Basis   // where the next solve starts: the last one's optimum
	z           []float64   // the lengths of the last separation
	separations int
}

// addCut appends the row s ≥ T·D. The carried basis gains its logical as
// basic: the same vertex, violating only the new row, which phase 1 repairs.
func (m *cutMaster) addCut(tbl []float64) {
	terms := []lp.Term{{Var: m.s, Coeff: 1}}
	for _, i := range m.pairs {
		terms = append(terms, lp.Term{Var: i, Coeff: -tbl[i]})
	}
	m.model.AddGE(terms, 0)
	m.pool = append(m.pool, tbl)
	m.basis.NumRows++
	m.basis.Status = append(m.basis.Status, lp.BasisBasic)
}

// bound is the pool's lower bound on OPTDAG(D).
func (m *cutMaster) bound(D *demand.Matrix) (lb float64) {
	for _, tbl := range m.pool {
		lb = max(lb, tableBound(tbl, D))
	}
	return lb
}

// step is one Dinkelbach step at θ: the matrix that maximizes a·D − θ·s, or
// nil when that maximum proves the master's ratio at most θ.
func (m *cutMaster) step(ctx context.Context, a []float64, theta float64) (*demand.Matrix, error) {
	if m.below(a, theta) {
		return nil, nil
	}
	for _, i := range m.pairs {
		m.model.SetObjective(i, a[i])
	}
	m.model.SetObjective(m.s, -theta)
	sol, err := m.model.Solve(ctx, &lp.SolveOptions{Basis: m.basis})
	if err == nil && sol.Status != lp.Optimal {
		err = fmt.Errorf("oblivious: cut master %v", sol.Status)
	}
	if err != nil {
		return nil, err
	}
	m.basis = sol.Basis
	D := &demand.Matrix{N: m.ev.Box.Max.N, D: sol.X[:len(m.ev.Box.Max.D)]}
	if tableBound(a, D) <= theta*(1+1e-12)*m.bound(D) {
		return nil, nil
	}
	return D, nil
}

// below reports whether one table T proves a·D ≤ θ·T·D on the whole box
// without a solve: max (a − θ·T)·D puts each entry at a bound by sign.
func (m *cutMaster) below(a []float64, theta float64) bool {
	for _, tbl := range m.pool {
		sum := 0.0
		for _, i := range m.pairs {
			if c := a[i] - theta*tbl[i]; c > 0 {
				sum += c * m.ev.Box.Max.D[i]
			} else {
				sum += c * m.ev.Box.Min.D[i]
			}
		}
		if sum <= 0 {
			return true
		}
	}
	return false
}

// separate solves OPTDAG(D) exactly; when the pool's bound at D falls short
// of it by more than 1e-9 relative, the solve's table becomes a cut.
func (m *cutMaster) separate(ctx context.Context, D *demand.Matrix) (v float64, cut bool, err error) {
	m.separations++
	v, certified, err := m.ev.solveExact(ctx, D, m.z)
	if !certified {
		return 0, false, fmt.Errorf("oblivious: exact separation found no dual certificate: %v", err)
	}
	if cut = v > m.bound(D)*(1+1e-9); cut {
		tbl := make([]float64, len(D.D))
		distTable(m.ev.G, m.ev.DAGs, m.z, tbl)
		m.addCut(tbl)
	}
	return v, cut, nil
}
