package lp

import (
	"context"
	"math"
	"testing"
)

// engineFunc solves a model on one of the two engines.
type engineFunc func(*Model) (*Solution, error)

var engines = map[string]engineFunc{
	"sparse": func(m *Model) (*Solution, error) { return m.Solve(context.Background(), nil) },
	"dense":  func(m *Model) (*Solution, error) { return m.SolveDense() },
}

// matrixCase is one instance of the pathological-LP test matrix. Objective
// and X are checked only when Status == Optimal (X entries set to NaN are
// skipped: degenerate optima may have multiple vertices).
type matrixCase struct {
	name      string
	build     func() *Model
	status    Status
	objective float64
	x         []float64
}

func matrixCases() []matrixCase {
	inf := math.Inf(1)
	nan := math.NaN()
	return []matrixCase{
		{
			// Beale's classic cycling example: full-tableau simplex with
			// naive Dantzig pricing cycles forever without anti-cycling.
			name: "beale-cycling",
			build: func() *Model {
				m := NewModel(Minimize)
				v0 := m.AddVar(0, inf, -0.75)
				v1 := m.AddVar(0, inf, 150)
				v2 := m.AddVar(0, inf, -0.02)
				v3 := m.AddVar(0, inf, 6)
				m.AddLE([]Term{{v0, 0.25}, {v1, -60}, {v2, -0.04}, {v3, 9}}, 0)
				m.AddLE([]Term{{v0, 0.5}, {v1, -90}, {v2, -0.02}, {v3, 3}}, 0)
				m.AddLE([]Term{{v2, 1}}, 1)
				return m
			},
			status:    Optimal,
			objective: -0.05,
			x:         []float64{nan, nan, 1, nan},
		},
		{
			// Kuhn's degenerate vertex: three constraints meet at the
			// optimum; the simplex must pass through degenerate pivots.
			name: "degenerate-vertex",
			build: func() *Model {
				m := NewModel(Maximize)
				x := m.AddVar(0, inf, 2)
				y := m.AddVar(0, inf, 3)
				m.AddLE([]Term{{x, 1}, {y, 1}}, 4)
				m.AddLE([]Term{{x, 1}, {y, 2}}, 6)
				m.AddLE([]Term{{x, 2}, {y, 1}}, 6)
				m.AddLE([]Term{{x, 1}, {y, 1}}, 4) // duplicate active row
				return m
			},
			status:    Optimal,
			objective: 10,
			x:         []float64{2, 2},
		},
		{
			name: "infeasible-rows",
			build: func() *Model {
				m := NewModel(Minimize)
				x := m.AddVar(0, inf, 1)
				m.AddLE([]Term{{x, 1}}, 1)
				m.AddGE([]Term{{x, 1}}, 2)
				return m
			},
			status: Infeasible,
		},
		{
			name: "infeasible-bounds-vs-row",
			build: func() *Model {
				m := NewModel(Minimize)
				x := m.AddVar(0, 3, 1)
				y := m.AddVar(0, 3, 1)
				m.AddEQ([]Term{{x, 1}, {y, 1}}, 10)
				return m
			},
			status: Infeasible,
		},
		{
			name: "infeasible-crossed-bounds",
			build: func() *Model {
				m := NewModel(Minimize)
				m.AddVar(5, 2, 1)
				return m
			},
			status: Infeasible,
		},
		{
			name: "unbounded-above",
			build: func() *Model {
				m := NewModel(Maximize)
				x := m.AddVar(0, inf, 1)
				m.AddGE([]Term{{x, 1}}, 0)
				return m
			},
			status: Unbounded,
		},
		{
			name: "unbounded-free-variable",
			build: func() *Model {
				m := NewModel(Minimize)
				x := m.AddVar(-inf, inf, 1)
				y := m.AddVar(0, inf, 0)
				m.AddLE([]Term{{x, 1}, {y, 1}}, 5)
				return m
			},
			status: Unbounded,
		},
		{
			// Degenerate AND bounded: every variable boxed, optimum at a
			// bound-flip-only vertex.
			name: "bound-flip-optimum",
			build: func() *Model {
				m := NewModel(Maximize)
				x := m.AddVar(1, 2, 1)
				y := m.AddVar(-1, 1, 1)
				m.AddLE([]Term{{x, 1}, {y, 1}}, 10) // slack: never binds
				return m
			},
			status:    Optimal,
			objective: 3,
			x:         []float64{2, 1},
		},
		{
			// Negative lower bounds and an equality chain.
			name: "negative-bounds-equality",
			build: func() *Model {
				m := NewModel(Minimize)
				x := m.AddVar(-5, 5, 1)
				y := m.AddVar(-5, 5, 2)
				m.AddEQ([]Term{{x, 1}, {y, 1}}, -3)
				return m
			},
			status:    Optimal,
			objective: -8, // x = -3-y ⇒ obj = -3+y, minimized at y = -5
			x:         []float64{2, -5},
		},
		{
			// Ranged row active at its lower end.
			name: "ranged-row",
			build: func() *Model {
				m := NewModel(Minimize)
				x := m.AddVar(0, inf, 1)
				y := m.AddVar(0, inf, 1)
				m.AddRow([]Term{{x, 1}, {y, 2}}, 4, 9)
				return m
			},
			status:    Optimal,
			objective: 2,
			x:         []float64{0, 2},
		},
		{
			// Fixed variables must be honored, not optimized away.
			name: "fixed-variable",
			build: func() *Model {
				m := NewModel(Maximize)
				x := m.AddVar(3, 3, 5)
				y := m.AddVar(0, inf, 1)
				m.AddLE([]Term{{x, 1}, {y, 1}}, 7)
				return m
			},
			status:    Optimal,
			objective: 19,
			x:         []float64{3, 4},
		},
	}
}

// TestMatrixBothEngines runs every pathological instance on both the
// sparse revised-simplex engine and the dense full-tableau oracle.
func TestMatrixBothEngines(t *testing.T) {
	for _, tc := range matrixCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for name, solve := range engines {
				sol, err := solve(tc.build())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if sol.Status != tc.status {
					t.Fatalf("%s: status = %v, want %v", name, sol.Status, tc.status)
				}
				if tc.status != Optimal {
					continue
				}
				if math.Abs(sol.Objective-tc.objective) > 1e-6 {
					t.Fatalf("%s: objective = %g, want %g", name, sol.Objective, tc.objective)
				}
				for j, want := range tc.x {
					if math.IsNaN(want) {
						continue
					}
					if math.Abs(sol.X[j]-want) > 1e-6 {
						t.Fatalf("%s: x[%d] = %g, want %g (x=%v)", name, j, sol.X[j], want, sol.X)
					}
				}
			}
		})
	}
}
