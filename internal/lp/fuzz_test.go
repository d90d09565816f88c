package lp

import (
	"context"
	"math"
	"testing"
)

// fuzzBytes reads a fuzz input one byte at a time, as zeros past its end.
type fuzzBytes struct {
	data []byte
	pos  int
}

func (b *fuzzBytes) next() int {
	if b.pos >= len(b.data) {
		return 0
	}
	b.pos++
	return int(b.data[b.pos-1])
}

// fuzzBounds decodes an interval of one of six kinds: [0, ∞), boxed,
// (−∞, a], [a, ∞), fixed, free.
func fuzzBounds(b *fuzzBytes) (lo, up float64) {
	kind, a, w := b.next()%6, float64(b.next()%9-4), float64(b.next()%5)
	switch kind {
	case 0:
		return 0, Inf
	case 1:
		return a, a + 1 + w
	case 2:
		return math.Inf(-1), a
	case 3:
		return a, Inf
	case 4:
		return a, a
	}
	return math.Inf(-1), Inf
}

// fuzzLP is a small bounded LP and one edit decoded from fuzz bytes. The
// model it builds holds copies of the LP side by side — copy c's costs
// scaled by 1 + c/8 so the copies do not tie — which lets an input of a few
// dozen bytes make one solve long enough to cross a refactorization
// boundary.
type fuzzLP struct {
	sense     Sense
	copies    int
	lo, up    []float64
	cost      []float64
	rows      [][]Term
	rlo, rup  []float64
	editRow   bool // the edit shifts a row's bounds, else a variable's
	editIdx   int
	editShift float64
}

func decodeFuzzLP(data []byte) *fuzzLP {
	b := &fuzzBytes{data: data}
	nv, nr := 2+b.next()%8, 1+b.next()%7
	lp := &fuzzLP{sense: Minimize, copies: 1 + b.next()%8}
	if b.next()%2 == 1 {
		lp.sense = Maximize
	}
	for j := 0; j < nv; j++ {
		lo, up := fuzzBounds(b)
		lp.lo, lp.up = append(lp.lo, lo), append(lp.up, up)
		lp.cost = append(lp.cost, float64(b.next()%11-5)/2)
	}
	for i := 0; i < nr; i++ {
		kind, rhs := b.next()%4, float64(b.next()%17-8)/2
		var terms []Term
		for j := 0; j < nv; j++ {
			if c := b.next()%7 - 3; c != 0 {
				terms = append(terms, Term{j, float64(c)})
			}
		}
		lo, up := math.Inf(-1), rhs
		switch kind {
		case 1:
			lo, up = rhs, Inf
		case 2:
			lo = rhs
		case 3:
			lo = rhs - 2
		}
		lp.rows, lp.rlo, lp.rup = append(lp.rows, terms), append(lp.rlo, lo), append(lp.rup, up)
	}
	lp.editRow = b.next()%2 == 1
	lp.editIdx = b.next()
	lp.editShift = float64(b.next()%9-4) / 2
	return lp
}

func (lp *fuzzLP) build() *Model {
	m := NewModel(lp.sense)
	nv := len(lp.cost)
	for c := 0; c < lp.copies; c++ {
		scale := 1 + float64(c)/8
		for j := range lp.cost {
			m.AddVar(lp.lo[j], lp.up[j], lp.cost[j]*scale)
		}
		for i, terms := range lp.rows {
			shifted := make([]Term, len(terms))
			for k, t := range terms {
				shifted[k] = Term{c*nv + t.Var, t.Coeff}
			}
			m.AddRow(shifted, lp.rlo[i], lp.rup[i])
		}
	}
	return m
}

// edit shifts the chosen row's or variable's bounds in every copy.
func (lp *fuzzLP) edit(m *Model) {
	nv, nr := len(lp.cost), len(lp.rows)
	for c := 0; c < lp.copies; c++ {
		if lp.editRow {
			i := lp.editIdx % nr
			m.SetRowBounds(c*nr+i, lp.rlo[i]+lp.editShift, lp.rup[i]+lp.editShift)
		} else {
			j := lp.editIdx % nv
			m.SetVarBounds(c*nv+j, lp.lo[j]+lp.editShift, lp.up[j]+lp.editShift)
		}
	}
}

// FuzzSolveParity: a decoded LP solved cold, then edited and re-solved warm
// from the cold basis on the same workspace, reaches the dense oracle's
// status and optimum (to 1e-7) both times, without a numerical failure, and
// each optimum passes Check with its row duals. The larger seeds run their
// cold solves past a refactorization and end them on updated factors, which
// the warm solve's factorization must replace without a trace; the second
// one's edit also leaves the carried basis primal infeasible, so its warm
// solve runs phase 1 from an accepted basis.
func FuzzSolveParity(f *testing.F) {
	f.Add([]byte{3, 2, 0, 0, 1, 1, 2, 6, 1, 0, 2, 9, 0, 3, 3, 4, 1, 8, 5, 2, 4, 0, 1, 3, 2})
	f.Add([]byte{7, 6, 7, 1, 1, 3, 4, 2, 5, 1, 2, 4, 8, 3, 1, 0, 7, 0, 2, 2, 9, 1, 4, 1, 10, 5, 0, 0, 1,
		3, 3, 6, 1, 2, 2, 4, 1, 1, 3, 0, 0, 4, 7, 2, 5, 3, 2, 6, 0, 1, 5, 2, 3, 5, 1, 4, 6, 0, 2, 1, 5, 3,
		2, 9, 4, 1, 6, 0, 2, 0, 1, 12, 5, 0, 2, 6, 4, 1, 3, 3, 15, 2, 5, 0, 1, 6, 2, 1, 0, 7, 4, 4, 3, 0,
		2, 1, 1, 3, 11, 6, 0, 5, 4, 1, 0, 1, 3, 9})
	f.Add([]byte{5, 4, 5, 0, 5, 0, 0, 6, 5, 1, 1, 7, 1, 2, 3, 2, 4, 4, 8, 0, 0, 2, 1, 1, 16, 1, 5, 2, 0, 6,
		3, 14, 4, 2, 2, 1, 5, 0, 2, 3, 1, 4, 6, 0, 3, 6, 1, 0, 1, 0, 2, 12, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		lp := decodeFuzzLP(data)
		m := lp.build()
		var basis *Basis
		for _, step := range []string{"cold", "warm"} {
			if step == "warm" {
				lp.edit(m)
			}
			want, err := m.SolveDense()
			if err != nil {
				t.Skipf("dense oracle: %v", err)
			}
			got, err := m.Solve(context.Background(), &SolveOptions{Basis: basis})
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			if got.Status != want.Status {
				t.Fatalf("%s: status %v, dense oracle %v", step, got.Status, want.Status)
			}
			if got.Status == Optimal {
				if math.Abs(got.Objective-want.Objective) > 1e-7*(1+math.Abs(want.Objective)) {
					t.Fatalf("%s: objective %.12g, dense oracle %.12g", step, got.Objective, want.Objective)
				}
				if err := m.Check(got.X, m.RowDuals()); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
			}
			basis = got.Basis
		}
	})
}
