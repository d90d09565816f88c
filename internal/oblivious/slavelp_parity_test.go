package oblivious

import (
	"context"
	"math"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/lp"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/topo"
)

// slaveEvaluator builds an evaluator whose uncertainty box keeps only
// demand pairs into a handful of destinations, so the dense oracle stays
// tractable on the 30+ node corpus topologies while the slave-LP rows keep
// their full structure.
func slaveEvaluator(t *testing.T, name string, nDests int) *Evaluator {
	t.Helper()
	g, err := topo.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	base := demand.Gravity(g, 1)
	keep := make(map[int]bool, nDests)
	for i := 0; i < nDests; i++ {
		keep[i*n/nDests] = true
	}
	for s := 0; s < n; s++ {
		for tt := 0; tt < n; tt++ {
			if !keep[tt] {
				base.D[s*n+tt] = 0
			}
		}
	}
	box := demand.MarginBox(base, 2)
	dags := dagx.BuildAll(g, dagx.Augmented)
	return NewEvaluator(g, dags, box, EvalConfig{Samples: 2, Seed: 3})
}

// TestSlaveLPSparseDenseParityCorpus runs the Appendix-C slave-LP
// formulation of every corpus topology through both engines — the shared
// Model solved sparse (with the per-link warm-start chain) and the dense
// full-tableau oracle — and requires identical per-link optima.
func TestSlaveLPSparseDenseParityCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep in -short mode")
	}
	for _, name := range topo.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ev := slaveEvaluator(t, name, 3)
			g := ev.G
			n := g.NumNodes()
			r := ECMPOnDAGs(g, ev.DAGs)
			coeff := make([][][]float64, n)
			actives := make([]bool, n)
			for tt := 0; tt < n; tt++ {
				coeff[tt] = r.LoadCoeffs(graph.NodeID(tt))
				for s := 0; s < n; s++ {
					if s != tt && ev.Box.Max.At(graph.NodeID(s), graph.NodeID(tt)) > 0 {
						actives[tt] = true
					}
				}
			}
			sl := ev.buildSlaveLP(actives)
			var basis *lp.Basis
			// Every 7th link bounds the dense-oracle cost; the rows are
			// identical across links, so coverage is not reduced.
			for e := 0; e < g.NumEdges(); e += 7 {
				sl.setObjective(ev, coeff, e)
				sparse, err := sl.model.Solve(context.Background(), &lp.SolveOptions{Basis: basis})
				if err != nil {
					t.Fatalf("edge %d sparse: %v", e, err)
				}
				basis = sparse.Basis
				dense, err := sl.model.SolveDense()
				if err != nil {
					t.Fatalf("edge %d dense: %v", e, err)
				}
				if sparse.Status != dense.Status {
					t.Fatalf("edge %d: sparse %v, dense %v", e, sparse.Status, dense.Status)
				}
				if sparse.Status != lp.Optimal {
					continue
				}
				tol := 1e-6 * (1 + math.Abs(dense.Objective))
				if math.Abs(sparse.Objective-dense.Objective) > tol {
					t.Fatalf("edge %d: sparse %.12g, dense %.12g", e, sparse.Objective, dense.Objective)
				}
			}
		})
	}
}

// TestPerfExactWarmMatchesCold proves the warm-start chain changes only
// the pivot paths, never the answer: PerfExact and PerfExactNoWarm agree
// on the worst-case ratio to solver tolerance.
func TestPerfExactWarmMatchesCold(t *testing.T) {
	for _, name := range []string{"Abilene", "NSF"} {
		ev := slaveEvaluator(t, name, 4)
		r := ECMPOnDAGs(ev.G, ev.DAGs)
		warm, err := ev.PerfExact(context.Background(), r)
		if err != nil {
			t.Fatalf("%s warm: %v", name, err)
		}
		cold, err := ev.PerfExactNoWarm(r)
		if err != nil {
			t.Fatalf("%s cold: %v", name, err)
		}
		if math.Abs(warm.Ratio-cold.Ratio) > 1e-7*(1+cold.Ratio) {
			t.Fatalf("%s: warm ratio %.12g, cold %.12g", name, warm.Ratio, cold.Ratio)
		}
	}
}

// TestPerfExactWarmChainHits asserts the basis chain actually fires: after
// the first link, warm starts must be accepted at a high rate.
func TestPerfExactWarmChainHits(t *testing.T) {
	ev := slaveEvaluator(t, "Abilene", 4)
	r := ECMPOnDAGs(ev.G, ev.DAGs)
	before := obs.Default.Snapshot()
	if _, err := ev.PerfExact(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	st := obs.Default.Snapshot().Since(before)
	attempts, hits := movedBy(t, st, "coyote_lp_warm_attempts_total"), movedBy(t, st, "coyote_lp_warm_hits_total")
	if attempts == 0 {
		t.Fatal("no warm starts attempted across the per-link chain")
	}
	if hits < 0.9*attempts {
		t.Fatalf("warm hit rate %.2f (attempts %v, hits %v); expected ≥ 0.9 — the rows never change",
			hits/attempts, attempts, hits)
	}
	if n := movedBy(t, st, "coyote_lp_dense_fallbacks_total"); n != 0 {
		t.Fatalf("%v numerical failures on the slave LP", n)
	}
}

// PerfExactNoWarm is PerfExact with the per-link warm-start chain
// disabled: every slave LP is solved from a cold basis. It is the oracle
// of the parity test above and the cold side of BenchmarkSlaveLP; results
// are identical to PerfExact up to round-off.
func (ev *Evaluator) PerfExactNoWarm(r *pdrouting.Routing) (Result, error) {
	return ev.perfExact(context.Background(), r, false)
}

// BenchmarkSlaveLP measures the Appendix-C exact adversary (one slave LP
// per link, shared rows) on Abilene with and without the per-link
// basis-chain warm start — the warm/cold contrast isolates what carrying
// the previous link's vertex saves.
func BenchmarkSlaveLP(b *testing.B) {
	g, err := topo.Load("Abilene")
	if err != nil {
		b.Fatal(err)
	}
	box := demand.MarginBox(demand.Gravity(g, 1), 2)
	dags := dagx.BuildAll(g, dagx.Augmented)
	ev := NewEvaluator(g, dags, box, EvalConfig{Samples: 2, Seed: 1})
	r := ECMPOnDAGs(g, dags)
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ev.PerfExact(context.Background(), r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ev.PerfExactNoWarm(r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
