package mcf

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/lp"
	"github.com/coyote-te/coyote/internal/topo"
)

// crashSolve solves mm from its crash basis through the solution-returning
// path, so the test can read the engine's stats. It fails the test when the
// crash does not apply.
func crashSolve(t testing.TB, label string, mm *MinMLUModel) *lp.Solution {
	t.Helper()
	if !mm.crashStart() {
		t.Fatalf("%s: no crash basis for a routable matrix", label)
	}
	sol, err := mm.Model.Solve(&lp.SolveOptions{Basis: &mm.crash})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return sol
}

// allLogical solves a fresh model for D from the all-logical start.
func allLogical(t testing.TB, g *graph.Graph, dags []*dagx.DAG, D *demand.Matrix) (float64, lp.SolveStats, error) {
	t.Helper()
	sol, err := NewMinMLUModel(g, dags, D).Model.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Optimal {
		return math.Inf(1), sol.Stats, ErrUnroutable
	}
	return sol.Objective, sol.Stats, nil
}

// dagDistances fills dist[v·n+t] with the z-length of v's shortest path to
// t inside t's allowed edges (+Inf when there is none), by Bellman–Ford.
func dagDistances(g *graph.Graph, dags []*dagx.DAG, z []float64, dist []float64) {
	n := g.NumNodes()
	for t := 0; t < n; t++ {
		allowed := allowedEdges(g, dags, graph.NodeID(t))
		for v := 0; v < n; v++ {
			dist[v*n+t] = math.Inf(1)
		}
		dist[t*n+t] = 0
		for round := 0; round < n; round++ {
			for _, e := range g.Edges() {
				if d := z[e.ID] + dist[int(e.To)*n+t]; allowed[e.ID] && d < dist[int(e.From)*n+t] {
					dist[int(e.From)*n+t] = d
				}
			}
		}
	}
}

func near(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(1, math.Abs(b))
}

// TestCrashBasis: on Abilene, NSF and Geant, with augmented DAGs and with
// every edge allowed, the crash basis of a random margin-box corner — some
// with whole demand columns zeroed, which drops destinations from the
// formulation, and single zero entries inside the remaining columns — is
// accepted by the engine and runs no phase 1 and no dual phase; its optimum
// is the all-logical start's within 1e-9 (relative); SolveMLU returns the
// same bits as the crash-started solve; and the capacity-row duals of the
// vertex it ends on are a dual-feasible certificate (CheckDual) whose bound
// is the optimum. The bridged-survivor subtest covers nodes outside their
// destination's tree.
func TestCrashBasis(t *testing.T) {
	for _, name := range []string{"Abilene", "NSF", "Geant"} {
		g, err := topo.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumNodes()
		base := demand.Gravity(g, 1)
		for _, dc := range []struct {
			name string
			dags []*dagx.DAG
		}{{"augmented", dagx.BuildAll(g, dagx.Augmented)}, {"all-edges", nil}} {
			rng := rand.New(rand.NewSource(int64(n)))
			z := make([]float64, g.NumEdges())
			dist := make([]float64, n*n)
			for trial := 0; trial < 4; trial++ {
				label := name + "/" + dc.name
				D := randomCorner(base, rng)
				if trial > 0 {
					for s := 0; s < n; s++ {
						for t := 0; t < n; t++ {
							if t%(trial+1) == 0 || rng.Intn(5) == 0 {
								D.D[s*n+t] = 0
							}
						}
					}
				}
				mm := NewMinMLUModel(g, dc.dags, D)
				sol := crashSolve(t, label, mm)
				st := sol.Stats
				if sol.Status != lp.Optimal || !st.WarmUsed || st.Phase1Iterations != 0 || st.DualAttempted || st.DenseFallback {
					t.Fatalf("%s trial %d: crash solve %v with %+v; want an accepted basis, no phase 1, no dual phase",
						label, trial, sol.Status, st)
				}
				want, _, err := allLogical(t, g, dc.dags, D)
				if err != nil || !near(sol.Objective, want, 1e-9) {
					t.Fatalf("%s trial %d: crash optimum %.15g, all-logical %.15g (%v)", label, trial, sol.Objective, want, err)
				}
				mlu, err := mm.SolveMLU(nil)
				if err != nil || math.Float64bits(mlu) != math.Float64bits(sol.Objective) {
					t.Fatalf("%s trial %d: SolveMLU = %v (%v), crash-started solve %v", label, trial, mlu, err, sol.Objective)
				}
				if !mm.Lengths(z) {
					t.Fatalf("%s trial %d: no certificate", label, trial)
				}
				dagDistances(g, dc.dags, z, dist)
				w := func(v, t graph.NodeID) float64 { return dist[int(v)*n+int(t)] }
				if err := CheckDual(g, dc.dags, mm.active, z, w, 1e-9); err != nil {
					t.Fatalf("%s trial %d: %v", label, trial, err)
				}
				bound := 0.0
				for i, d := range D.D {
					if d > 0 {
						bound += d * dist[i]
					}
				}
				if !near(bound, mlu, 1e-7) {
					t.Fatalf("%s trial %d: certificate bound %.12g, optimum %.12g", label, trial, bound, mlu)
				}
			}
		}
	}
	t.Run("bridged-survivor", testCrashBasisUnreachable)
}

// bridgedSurvivor is two triangles {0,1,2} and {3,4,5} once joined by the
// link 2–3, with that link failed.
func bridgedSurvivor() *graph.Graph {
	g := graph.New()
	g.AddNodes(6)
	for _, l := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		g.AddLink(l[0], l[1], 10, 1)
	}
	bridge := g.AddLink(2, 3, 10, 1)
	return g.WithoutLink(bridge)
}

// testCrashBasisUnreachable covers the two ways a node can miss its
// destination's tree on the bridged survivor graph: with zero demand it keeps
// its conservation logical basic and the crash still applies, and a positive
// demand across the failed bridge has no tree path, so the model falls back
// to the all-logical start, which proves ErrUnroutable.
func testCrashBasisUnreachable(t *testing.T) {
	g := bridgedSurvivor()
	for _, dc := range []struct {
		name string
		dags []*dagx.DAG
	}{{"augmented", dagx.BuildAll(g, dagx.Augmented)}, {"all-edges", nil}} {
		// Nodes 3, 4 and 5 cannot reach destination 0 and send it nothing.
		D := demand.NewMatrix(6)
		D.Set(1, 0, 7)
		D.Set(2, 0, 4)
		D.Set(4, 3, 2)
		mm := NewMinMLUModel(g, dc.dags, D)
		sol := crashSolve(t, dc.name, mm)
		if sol.Status != lp.Optimal || sol.Stats.Phase1Iterations != 0 || sol.Stats.DualAttempted {
			t.Fatalf("%s: crash solve %v with %+v", dc.name, sol.Status, sol.Stats)
		}
		if want, _, err := allLogical(t, g, dc.dags, D); err != nil || !near(sol.Objective, want, 1e-9) {
			t.Fatalf("%s: crash optimum %.15g, all-logical %.15g (%v)", dc.name, sol.Objective, want, err)
		}

		// Node 4 sends to destination 0 across the failed bridge.
		D.Set(4, 0, 1)
		mm = NewMinMLUModel(g, dc.dags, D)
		if mm.crashStart() {
			t.Fatalf("%s: crash basis built for a demand with no tree path", dc.name)
		}
		if mlu, err := mm.SolveMLU(nil); !errors.Is(err, ErrUnroutable) || !math.IsInf(mlu, 1) {
			t.Fatalf("%s: SolveMLU = %v, %v; want +Inf, ErrUnroutable", dc.name, mlu, err)
		}
	}
}

// FuzzCrashStart: on random graphs of at most 8 nodes (directed edges, so
// some nodes cannot reach some destinations) with random demands, over
// augmented DAGs or every edge, the crash-started SolveMLU reaches the
// all-logical start's optimum within 1e-9 (relative) or agrees that the
// matrix is unroutable, and neither start needs the dense fallback.
func FuzzCrashStart(f *testing.F) {
	f.Add([]byte{4, 0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{7, 1, 9, 200, 17, 33, 5, 61, 2, 0, 90, 14, 7, 255, 3, 8, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{2, 0, 0, 1, 1, 0, 5, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%7
		useDAGs := data[1]%2 == 1
		data = data[2:]
		g := graph.New()
		g.AddNodes(n)
		// Edges: a byte pair (from·n+to, capacity) per edge; a ring of links
		// first when the low bit of the first byte asks for it.
		if data[0]%2 == 1 {
			for v := 0; v < n; v++ {
				g.AddLink(graph.NodeID(v), graph.NodeID((v+1)%n), 1+float64(data[0]%13), 1)
			}
		}
		data = data[1:]
		nEdges := 0
		for len(data) >= 2 && nEdges < 3*n {
			from, to := int(data[0])%n, int(data[0]/8)%n
			if from != to {
				g.AddEdge(graph.NodeID(from), graph.NodeID(to), 1+float64(data[1]%31), 1+float64(data[1]%3))
			}
			data = data[2:]
			nEdges++
		}
		D := demand.NewMatrix(n)
		for i, b := range data {
			s, dst := (i/n)%n, i%n
			if s != dst && b%3 != 0 {
				D.Set(graph.NodeID(s), graph.NodeID(dst), float64(b)/16)
			}
		}
		if D.Total() == 0 {
			return
		}
		var dags []*dagx.DAG
		if useDAGs {
			dags = dagx.BuildAll(g, dagx.Augmented)
		}
		want, wantStats, wantErr := allLogical(t, g, dags, D)
		if wantStats.DenseFallback {
			t.Fatalf("all-logical start needed the dense fallback: %+v", wantStats)
		}
		mm := NewMinMLUModel(g, dags, D)
		if mm.crashStart() {
			sol, err := mm.Model.Solve(&lp.SolveOptions{Basis: &mm.crash})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Stats.DenseFallback || !sol.Stats.WarmUsed || sol.Stats.Phase1Iterations != 0 {
				t.Fatalf("crash start: %+v; want an accepted basis, no phase 1, no dense fallback", sol.Stats)
			}
		}
		got, err := mm.SolveMLU(nil)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("crash start: %v (%v); all-logical start: %v (%v)", got, err, want, wantErr)
		case err == nil && !near(got, want, 1e-9):
			t.Fatalf("crash optimum %.15g, all-logical %.15g", got, want)
		}
	})
}
