package lp

import (
	"context"
	"fmt"
	"math"

	"github.com/coyote-te/coyote/internal/obs"
)

// Inf is the bound value meaning "unbounded in this direction". Any
// magnitude at or beyond it is treated as infinite.
var Inf = math.Inf(1)

// Model is the shared LP builder the solver clients (OPTDAG, the exact
// adversary's cut master, the dual certificates) construct against. Unlike the legacy Problem it
// supports bounded variables (lo ≤ x ≤ up, so demand-box and capacity
// bounds need not become explicit rows), ranged rows (rlo ≤ aᵀx ≤ rup),
// objective/bound mutation between solves, and warm starts from an
// exported Basis — the sparse revised-simplex engine behind Solve resumes
// from the previous vertex, which is what makes the adversary loop's
// near-identical successive LPs and the online controller's repeated
// normalizations cheap.
//
// A Model owns the engine's workspace (simplex state, LU factors with their
// U row view and row-eta arenas) and reuses it across solves of the same
// shape, so a chain of bound/objective edits and re-solves allocates only
// what Solve returns.
// Everything a Solution carries is a fresh copy; nothing numeric is carried
// from one solve to the next except through SolveOptions.Basis (DESIGN.md
// §7).
//
// The zero value is not usable; create models with NewModel. Models are
// not safe for concurrent use.
type Model struct {
	sense     Sense
	obj       []float64
	objOffset float64 // constant added to every objective value
	vlo       []float64
	vup       []float64
	rows      []mrow

	built *spxProb // cached engine form; invalidated by AddRow/AddVar
	ws    *spx     // engine workspace, reused while the built shape (rows, vars) holds
	// atOptimum: ws holds the optimal vertex of the last solve (RowDuals).
	atOptimum bool
}

type mrow struct {
	terms []Term
	lo    float64
	up    float64
}

// NewModel returns an empty model with the given objective sense.
func NewModel(sense Sense) *Model {
	return &Model{sense: sense}
}

// AddVar adds a variable with bounds [lo, up] and the given objective
// coefficient, returning its index. Use lp.Inf / -lp.Inf for unbounded
// directions.
func (m *Model) AddVar(lo, up, obj float64) int {
	m.vlo = append(m.vlo, lo)
	m.vup = append(m.vup, up)
	m.obj = append(m.obj, obj)
	m.built = nil
	return len(m.obj) - 1
}

// AddVars adds n non-negative variables with zero objective and returns
// the first index.
func (m *Model) AddVars(n int) int {
	first := len(m.obj)
	for i := 0; i < n; i++ {
		m.AddVar(0, Inf, 0)
	}
	return first
}

// NumVars reports the number of variables added so far.
func (m *Model) NumVars() int { return len(m.obj) }

// NumRows reports the number of rows added so far.
func (m *Model) NumRows() int { return len(m.rows) }

// SetObjective sets the objective coefficient of variable v. Changing the
// objective does not invalidate a warm-start basis: the previous optimal
// vertex stays primal feasible, so re-solving skips phase 1 entirely.
func (m *Model) SetObjective(v int, c float64) { m.obj[v] = c }

// SetObjectiveOffset sets the constant term added to every objective value
// (MPS files express it as an RHS entry on the objective row). It does not
// affect the optimizer's choices, only the reported Objective.
func (m *Model) SetObjectiveOffset(c float64) { m.objOffset = c }

// SetVarBounds replaces the bounds of variable v.
func (m *Model) SetVarBounds(v int, lo, up float64) {
	m.vlo[v] = lo
	m.vup[v] = up
	if m.built != nil {
		m.built.lo[v] = lo
		m.built.up[v] = up
	}
}

// AddRow appends the ranged constraint rlo ≤ Σ terms ≤ rup and returns its
// row index. Terms may repeat a variable; coefficients accumulate.
func (m *Model) AddRow(terms []Term, rlo, rup float64) int {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(m.obj) {
			panic(fmt.Sprintf("lp: row references variable %d of %d", t.Var, len(m.obj)))
		}
	}
	m.rows = append(m.rows, mrow{terms: append([]Term(nil), terms...), lo: rlo, up: rup})
	m.built = nil
	return len(m.rows) - 1
}

// AddLE appends Σ terms ≤ b.
func (m *Model) AddLE(terms []Term, b float64) int { return m.AddRow(terms, -Inf, b) }

// AddGE appends Σ terms ≥ b.
func (m *Model) AddGE(terms []Term, b float64) int { return m.AddRow(terms, b, Inf) }

// AddEQ appends Σ terms = b.
func (m *Model) AddEQ(terms []Term, b float64) int { return m.AddRow(terms, b, b) }

// SetRowBounds replaces the bounds of row r — the cheap way to move an RHS
// between warm-started solves without rebuilding the model.
func (m *Model) SetRowBounds(r int, rlo, rup float64) {
	m.rows[r].lo = rlo
	m.rows[r].up = rup
	if m.built != nil {
		m.built.lo[len(m.obj)+r] = rlo
		m.built.up[len(m.obj)+r] = rup
	}
}

// SolveOptions is where a Model solve starts.
type SolveOptions struct {
	// Basis warm-starts the solve from a previously returned Basis, or from
	// one the caller built (mcf's crash basis). A basis whose shape no
	// longer matches the model (or that has become singular) is ignored and
	// the solve starts cold; Solution.Stats reports which happened. An
	// accepted basis that bound/RHS edits have made primal infeasible is
	// repaired by primal phase 1 before phase 2 runs.
	Basis *Basis
}

// SolveStats describes one sparse solve.
type SolveStats struct {
	Iterations       int  // total simplex iterations (all phases)
	Phase1Iterations int  // iterations spent restoring feasibility (primal phase 1)
	Refactorizations int  // LU (re)factorizations, including the initial one
	WarmAttempted    bool // a warm basis was supplied
	WarmUsed         bool // ... and it was accepted

	// StabilityRefactorizations counts the refactorizations forced by a
	// Forrest–Tomlin update failing its stability test (included in
	// Refactorizations).
	StabilityRefactorizations int
}

// build materializes the engine form (CSC structural matrix, bound arrays,
// minimization costs).
func (m *Model) build() *spxProb {
	if m.built != nil {
		// Bounds are kept in sync by the setters; refresh costs, which are
		// cheap and may have been edited via SetObjective.
		m.syncCosts(m.built)
		return m.built
	}
	n := len(m.obj)
	nr := len(m.rows)
	p := &spxProb{
		a:    csc{m: nr, n: n},
		lo:   make([]float64, n+nr),
		up:   make([]float64, n+nr),
		cost: make([]float64, n),
	}
	copy(p.lo, m.vlo)
	copy(p.up, m.vup)
	for i, r := range m.rows {
		p.lo[n+i] = r.lo
		p.up[n+i] = r.up
	}
	m.syncCosts(p)
	// Accumulate per-column entries (rows may repeat variables).
	counts := make([]int32, n+1)
	for _, r := range m.rows {
		for _, t := range r.terms {
			counts[t.Var+1]++
		}
	}
	for j := 0; j < n; j++ {
		counts[j+1] += counts[j]
	}
	p.a.colPtr = counts
	nnz := counts[n]
	p.a.rowIdx = make([]int32, nnz)
	p.a.val = make([]float64, nnz)
	next := make([]int32, n)
	for j := range next {
		next[j] = counts[j]
	}
	for i, r := range m.rows {
		for _, t := range r.terms {
			p.a.rowIdx[next[t.Var]] = int32(i)
			p.a.val[next[t.Var]] = t.Coeff
			next[t.Var]++
		}
	}
	// Merge duplicate (row, col) entries within each column so the engine
	// sees each coefficient once.
	m.mergeDuplicates(p)
	m.built = p
	return p
}

func (m *Model) syncCosts(p *spxProb) {
	if m.sense == Minimize {
		copy(p.cost, m.obj)
	} else {
		for j, c := range m.obj {
			p.cost[j] = -c
		}
	}
}

// mergeDuplicates collapses repeated row indices inside each CSC column
// (entries are grouped by construction since rows were appended in order).
func (m *Model) mergeDuplicates(p *spxProb) {
	a := &p.a
	w := int32(0)
	newPtr := make([]int32, a.n+1)
	for j := 0; j < a.n; j++ {
		newPtr[j] = w
		start := a.colPtr[j]
		end := a.colPtr[j+1]
		for i := start; i < end; i++ {
			if w > newPtr[j] && a.rowIdx[w-1] == a.rowIdx[i] {
				a.val[w-1] += a.val[i]
				continue
			}
			a.rowIdx[w] = a.rowIdx[i]
			a.val[w] = a.val[i]
			w++
		}
	}
	newPtr[a.n] = w
	a.colPtr = newPtr
	a.rowIdx = a.rowIdx[:w]
	a.val = a.val[:w]
}

// Solve runs the sparse revised simplex and returns the solution. A
// numerical failure of the engine (ErrIterationLimit or a singular basis) is
// returned as the error and counted in the global stats; it should never
// happen on the formulations in this repository. When ctx carries an
// obs.Tracer the solve records one lp.solve span with its phase breakdown
// (iterations, warm-start verdict); tracing never affects the solve.
func (m *Model) Solve(ctx context.Context, opts *SolveOptions) (*Solution, error) {
	status, stats, err := m.run(ctx, opts)
	if err != nil {
		return nil, err
	}
	sol := &Solution{Status: status, Stats: stats}
	if status == Optimal {
		s := m.ws
		sol.X = s.values()[:len(m.obj):len(m.obj)]
		obj := m.objOffset
		for j, c := range m.obj {
			obj += c * sol.X[j]
		}
		sol.Objective = obj
		sol.Basis = s.exportBasis()
	}
	return sol, nil
}

// SolveObjective is Solve for callers that keep only the optimum: the same
// solve, without the copies of X and the final Basis. The objective is
// meaningful when the status is Optimal; RowDuals reads the vertex's duals.
func (m *Model) SolveObjective(ctx context.Context, opts *SolveOptions) (float64, Status, error) {
	status, _, err := m.run(ctx, opts)
	switch {
	case err != nil:
		return 0, 0, err
	case status != Optimal:
		return 0, status, nil
	}
	obj := m.objOffset
	for j, c := range m.obj {
		obj += c * m.ws.colVal(int32(j))
	}
	return obj, Optimal, nil
}

// RowDuals returns one multiplier per model row for the vertex the last
// solve ended on, in the model's own sense — for a minimization yᵀ·rhs
// lower-bounds the optimum, for a maximization it upper-bounds it (the
// engine's minimization multipliers are negated) — without copying: the
// slice is the workspace's, valid until the model is solved again. It is
// nil unless that solve was Optimal on the sparse engine.
func (m *Model) RowDuals() []float64 {
	if !m.atOptimum {
		return nil
	}
	y := m.ws.duals()
	if m.sense == Maximize {
		for i := range y {
			y[i] = -y[i]
		}
	}
	return y
}

// run drives the engine on the model's workspace. It returns the engine's
// verdict with the final vertex left in m.ws for the caller to read, or the
// engine's error when it failed numerically.
func (m *Model) run(ctx context.Context, opts *SolveOptions) (status Status, stats SolveStats, err error) {
	var warm *Basis
	if opts != nil {
		warm = opts.Basis
	}
	_, span := obs.StartSpan(ctx, "lp.solve")
	defer span.End()
	m.atOptimum = false
	// A variable with crossed bounds makes the model trivially infeasible;
	// the engine's bound logic assumes lo ≤ up everywhere.
	for j := range m.vlo {
		if m.vlo[j] > m.vup[j] {
			return Infeasible, stats, nil
		}
	}
	for i := range m.rows {
		if m.rows[i].lo > m.rows[i].up {
			return Infeasible, stats, nil
		}
	}
	p := m.build()
	if m.ws == nil || m.ws.m != p.a.m || m.ws.n != p.a.n {
		m.ws = newSpx(p.a.m, p.a.n)
	}
	status, err = m.ws.run(p, warm)
	stats = m.ws.stats
	recordGlobalStats(stats)
	if span != nil {
		span.Attr("iterations", stats.Iterations).
			Attr("phase1_iterations", stats.Phase1Iterations).
			Attr("refactorizations", stats.Refactorizations).
			Attr("stability_refactorizations", stats.StabilityRefactorizations).
			Attr("warm_attempted", stats.WarmAttempted).
			Attr("warm_used", stats.WarmUsed)
	}
	if err != nil {
		mDenseFallbacks.Inc()
		return 0, stats, err
	}
	span.Attr("status", status.String())
	m.atOptimum = status == Optimal
	return status, stats, nil
}

// SolveDense solves the model with the dense full-tableau reference solver
// (package lp's original two-phase simplex). It exists only as the tests'
// parity oracle for the sparse engine — randomized tests cross-validate
// every optimum — and no production path calls it. Bounded variables are
// rewritten into the dense solver's x ≥ 0 form (shifts, sign flips, and
// free-variable splits); ranged rows become constraint pairs.
func (m *Model) SolveDense() (*Solution, error) {
	n := len(m.obj)
	p := NewProblem(m.sense)
	// Per-variable mapping into dense variables: x = shift + sign·x' with
	// x' ≥ 0, or a free split x = x⁺ − x⁻.
	type vmap struct {
		pos, neg int // dense indices (neg = −1 unless split)
		shift    float64
		sign     float64
		fixed    bool
	}
	maps := make([]vmap, n)
	constant := 0.0
	for j := 0; j < n; j++ {
		lo, up := m.vlo[j], m.vup[j]
		switch {
		case lo > up:
			return &Solution{Status: Infeasible}, nil
		case lo == up:
			maps[j] = vmap{pos: -1, neg: -1, shift: lo, fixed: true}
			constant += m.obj[j] * lo
		case lo > -spxInf:
			v := p.AddVariable()
			maps[j] = vmap{pos: v, neg: -1, shift: lo, sign: 1}
			p.SetObjective(v, m.obj[j])
			constant += m.obj[j] * lo
			if up < spxInf {
				p.AddConstraint([]Term{{v, 1}}, LE, up-lo)
			}
		case up < spxInf:
			v := p.AddVariable()
			maps[j] = vmap{pos: v, neg: -1, shift: up, sign: -1}
			p.SetObjective(v, -m.obj[j])
			constant += m.obj[j] * up
		default:
			vp := p.AddVariable()
			vn := p.AddVariable()
			maps[j] = vmap{pos: vp, neg: vn, sign: 1}
			p.SetObjective(vp, m.obj[j])
			p.SetObjective(vn, -m.obj[j])
		}
	}
	// addRow reports false when the row reduces to an unsatisfiable
	// constant (every referenced variable fixed): Problem.Solve would not
	// see such rows at all once it has zero variables.
	addRow := func(r mrow, rel Rel, rhs float64) bool {
		var terms []Term
		shift := 0.0
		for _, t := range r.terms {
			mp := maps[t.Var]
			if mp.fixed {
				shift += t.Coeff * mp.shift
				continue
			}
			terms = append(terms, Term{mp.pos, t.Coeff * mp.sign})
			if mp.neg >= 0 {
				terms = append(terms, Term{mp.neg, -t.Coeff})
			}
			shift += t.Coeff * mp.shift
		}
		if len(terms) == 0 {
			b := rhs - shift
			switch rel {
			case LE:
				return b >= -spxFeasTol
			case GE:
				return b <= spxFeasTol
			}
			return math.Abs(b) <= spxFeasTol
		}
		p.AddConstraint(terms, rel, rhs-shift)
		return true
	}
	for _, r := range m.rows {
		ok := true
		switch {
		case r.lo > r.up:
			return &Solution{Status: Infeasible}, nil
		case r.lo == r.up:
			ok = addRow(r, EQ, r.lo)
		default:
			if r.up < spxInf {
				ok = addRow(r, LE, r.up)
			}
			if ok && r.lo > -spxInf {
				ok = addRow(r, GE, r.lo)
			}
		}
		if !ok {
			return &Solution{Status: Infeasible}, nil
		}
	}
	dsol, err := p.Solve()
	if err != nil {
		return nil, err
	}
	sol := &Solution{Status: dsol.Status}
	if dsol.Status == Optimal {
		sol.X = make([]float64, n)
		for j, mp := range maps {
			switch {
			case mp.fixed:
				sol.X[j] = mp.shift
			case mp.neg >= 0:
				sol.X[j] = dsol.X[mp.pos] - dsol.X[mp.neg]
			default:
				sol.X[j] = mp.shift + mp.sign*dsol.X[mp.pos]
			}
		}
		sol.Objective = dsol.Objective + constant + m.objOffset
	}
	return sol, nil
}
