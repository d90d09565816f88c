package lp

import (
	"context"
	"strings"
	"testing"
)

// TestCheckRejects perturbs the optimum of one small bounded, ranged model
// and requires Check to name the variable or row and the condition each
// perturbation breaks. The optimum is x = (2, 3, 0): row 0 tight at its
// upper side with dual −1, rows 1 and 2 slack, x₁ at its upper bound, x₂ at
// its lower bound with reduced cost 1.
func TestCheckRejects(t *testing.T) {
	m := NewModel(Minimize)
	m.AddVar(0, 4, -1)
	m.AddVar(-1, 3, -2)
	m.AddVar(0, 2, 1)
	m.AddRow([]Term{{0, 1}, {1, 1}}, 1, 5)
	m.AddRow([]Term{{0, 1}, {1, -1}}, -2, 2)
	m.AddLE([]Term{{0, 1}, {1, 1}, {2, 1}}, 10)
	sol, err := m.Solve(context.Background(), nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v, %v", sol, err)
	}
	if err := m.Check(sol.X, m.RowDuals()); err != nil {
		t.Fatalf("solver optimum rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(x, y []float64)
		want []string
	}{
		{"variable 1e-6 past its bound", func(x, y []float64) { x[1] *= 1 + 1e-6 }, []string{"x[1]", "above its upper bound"}},
		{"row past its side", func(x, y []float64) { x[0] += 1e-5 }, []string{"row 0 activity", "above its upper side"}},
		{"wrong-sign dual on an active row", func(x, y []float64) { y[0] = -y[0] }, []string{"row 0 dual", "wrong sign", "upper side"}},
		{"nonzero dual on an inactive row", func(x, y []float64) { y[2] = -0.5 }, []string{"row 2 dual", "tight at neither side"}},
		{"wrong-sign reduced cost at a bound", func(x, y []float64) { x[2] = 2 }, []string{"x[2] at its upper bound", "wrong-sign reduced cost"}},
		{"nonzero reduced cost inside the bounds", func(x, y []float64) { y[0] *= 2 }, []string{"x[0]", "nonzero reduced cost"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := append([]float64(nil), sol.X...)
			y := append([]float64(nil), m.RowDuals()...)
			tc.edit(x, y)
			err := m.Check(x, y)
			if err == nil {
				t.Fatalf("accepted x = %v, y = %v", x, y)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Fatalf("error %q does not name %q", err, w)
				}
			}
		})
	}
}
