package mcf

import (
	"math"
	"math/rand"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/lp"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/topo"
)

// TestCrashStartRHSEditsProperty drives the semi-oblivious Adapt contract
// on corpus-derived OPTDAG models: one MinMLUModel carried through a random
// sequence of demand (RHS) edits and solved from the crash basis of each
// edited matrix must, after every edit, reach the optimum of a cold solve of
// a model freshly built for that matrix (to 1e-6), with the crash basis
// accepted and no phase-1 pivots — and, in aggregate, in under 0.6× the
// cold solves' pivots.
func TestCrashStartRHSEditsProperty(t *testing.T) {
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
			rng := rand.New(rand.NewSource(0x5eed + int64(n)))
			cur := D.Clone()
			const edits = 30
			var crashIters, coldIters float64
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

				before := obs.Default.Snapshot()
				mlu, _, _, err := mm.Solve(&lp.SolveOptions{Basis: mm.CrashBasis()})
				if err != nil {
					t.Fatalf("edit %d crash start: %v", i, err)
				}
				st := obs.Default.Snapshot().Since(before)
				if movedBy(t, st, "coyote_lp_warm_hits_total") != 1 || movedBy(t, st, "coyote_lp_phase1_iterations_total") != 0 {
					t.Fatalf("edit %d: crash-started solve moved %v; want the basis accepted and no phase 1", i, st)
				}
				crashIters += movedBy(t, st, "coyote_lp_iterations_total")

				before = obs.Default.Snapshot()
				coldMLU, _, _, err := NewMinMLUModel(g, dags, cur).Solve(nil)
				if err != nil {
					t.Fatalf("edit %d cold: %v", i, err)
				}
				coldIters += movedBy(t, obs.Default.Snapshot().Since(before), "coyote_lp_iterations_total")

				if math.Abs(mlu-coldMLU) > 1e-6*(1+coldMLU) {
					t.Fatalf("edit %d: crash-started MLU %.12g, cold %.12g", i, mlu, coldMLU)
				}
			}
			ratio := crashIters / coldIters
			t.Logf("%s: crash start %v pivots vs cold %v over %d edits (ratio %.3f)", name, crashIters, coldIters, edits, ratio)
			if ratio >= 0.6 {
				t.Fatalf("crash/cold pivot ratio %.3f; regression guard requires < 0.6", ratio)
			}
		})
	}
}

// movedBy reads key from a Snapshot.Since map and fails the test when the
// registry holds no such series, so a renamed or mistyped counter cannot
// read as 0.
func movedBy(tb testing.TB, moved map[string]float64, key string) float64 {
	tb.Helper()
	v, ok := moved[key]
	if !ok {
		tb.Fatalf("the registry has no series %s", key)
	}
	return v
}
