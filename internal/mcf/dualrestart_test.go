package mcf

import (
	"math"
	"math/rand"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/lp"
	"github.com/coyote-te/coyote/internal/topo"
)

// TestDualRestartBoundEditsProperty drives the online-controller contract
// end to end on corpus-derived OPTDAG models: a random sequence of demand
// (RHS) edits applied to a carried MinMLUModel must, after every edit,
// reach the same optimum as a cold solve of the edited instance — and the
// warm path, repaired by the dual simplex where the carried basis went
// primal infeasible, must spend well under the ROADMAP target of 0.6× the
// cold pivot count in aggregate.
func TestDualRestartBoundEditsProperty(t *testing.T) {
	for _, name := range []string{"NSF", "Abilene"} {
		name := name
		t.Run(name, func(t *testing.T) {
			g, err := topo.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			n := g.NumNodes()
			dests := []graph.NodeID{0, graph.NodeID(n / 3), graph.NodeID(2 * n / 3), graph.NodeID(n - 1)}
			D := restrictDestinations(demand.Gravity(g, 1), dests...)
			dags := dagx.BuildAll(g, dagx.Augmented)

			mm := NewMinMLUModel(g, dags, D)
			_, _, basis, err := mm.Solve(nil)
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(0x5eed + int64(n)))
			cur := D.Clone()
			const edits = 30
			var warmIters, coldIters uint64
			var dualHits uint64
			for i := 0; i < edits; i++ {
				// Edit 1–3 demand entries toward active destinations. Demands
				// stay strictly positive so a cold rebuild of the edited
				// matrix has the identical active-destination shape.
				for k := rng.Intn(3) + 1; k > 0; k-- {
					tt := dests[rng.Intn(len(dests))]
					s := graph.NodeID(rng.Intn(n))
					if s == tt {
						continue
					}
					old := cur.D[int(s)*n+int(tt)]
					if old <= 0 {
						continue
					}
					d := old * (0.25 + 3*rng.Float64())
					cur.D[int(s)*n+int(tt)] = d
					if err := mm.SetDemand(s, tt, d); err != nil {
						t.Fatal(err)
					}
				}

				lp.ResetGlobalStats()
				warmMLU, _, nb, err := mm.Solve(&lp.SolveOptions{Basis: basis})
				if err != nil {
					t.Fatalf("edit %d warm: %v", i, err)
				}
				ws := lp.GlobalStats()
				warmIters += ws.Iterations
				dualHits += ws.DualHits
				basis = nb

				lp.ResetGlobalStats()
				coldMLU, _, _, err := NewMinMLUModel(g, dags, cur).Solve(nil)
				if err != nil {
					t.Fatalf("edit %d cold: %v", i, err)
				}
				coldIters += lp.GlobalStats().Iterations

				if math.Abs(warmMLU-coldMLU) > 1e-6*(1+coldMLU) {
					t.Fatalf("edit %d: warm MLU %.12g, cold %.12g", i, warmMLU, coldMLU)
				}
			}
			if dualHits == 0 {
				t.Fatalf("dual simplex never activated across %d random edits", edits)
			}
			ratio := float64(warmIters) / float64(coldIters)
			t.Logf("%s: warm %d pivots vs cold %d over %d edits (ratio %.3f, dual hits %d)",
				name, warmIters, coldIters, edits, ratio, dualHits)
			if ratio >= 0.6 {
				t.Fatalf("warm/cold pivot ratio %.3f; regression guard requires < 0.6", ratio)
			}
		})
	}
}
