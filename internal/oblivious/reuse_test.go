package oblivious

import (
	"encoding/binary"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/mcf"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/topo"
)

// freshOptDAG is the exact normalization as it was before models were
// reused: a model built for D alone, solved once. It returns the value and
// the LP work the solve did.
func freshOptDAG(t *testing.T, g *graph.Graph, dags []*dagx.DAG, D *demand.Matrix) (float64, map[string]float64) {
	t.Helper()
	before := obs.Default.Snapshot()
	v, err := mcf.NewMinMLUModel(g, dags, D).SolveMLU(nil)
	if err != nil {
		t.Fatal(err)
	}
	return v, lpWork(before)
}

// lpWork returns the coyote_lp_ series that moved since before.
func lpWork(before obs.Snapshot) map[string]float64 {
	out := map[string]float64{}
	for k, v := range obs.Default.Snapshot().Since(before) {
		if strings.HasPrefix(k, "coyote_lp_") && v != 0 {
			out[k] = v
		}
	}
	return out
}

// TestExactOptDAGReuseParity: normalizations through the evaluator — which
// re-targets pooled models — are, matrix by matrix, the solve a freshly built
// model does: same value bits, same LP work. The margin box keeps one
// formulation shape; the oblivious box (lower bounds 0) changes the active
// destination set from matrix to matrix, so the free list is matched,
// missed, refilled and evicted. OptDAG is the serial chain, PerfTop the
// parallel fan-out.
func TestExactOptDAGReuseParity(t *testing.T) {
	g, err := topo.Load("NSF")
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	dags := dagx.BuildAll(g, dagx.Augmented)
	boxes := []struct {
		name string
		box  *demand.Box
	}{
		{"margin", demand.MarginBox(demand.Gravity(g, 1), 2)},
		{"oblivious", demand.ObliviousBox(n, 1)},
	}
	routings := []*pdrouting.Routing{ECMPOnDAGs(g, dags), pdrouting.Uniform(g, dags)}
	for _, bc := range boxes {
		for _, workers := range []int{1, 4} {
			rng := rand.New(rand.NewSource(23))
			// Twelve destination subsets — more shapes than the free list
			// holds — that the oblivious corners cycle through.
			subsets := make([][]bool, 12)
			for i := range subsets {
				subsets[i] = make([]bool, n)
				subsets[i][rng.Intn(n)] = true
				for t := range subsets[i] {
					if rng.Intn(2) == 0 {
						subsets[i][t] = true
					}
				}
			}
			ev := NewEvaluator(g, dags, bc.box, EvalConfig{Samples: 16, Seed: 3, Workers: workers})
			matrices, shapes := 0, map[string]bool{}

			// The serial chain.
			for i := 0; i < 150; i++ {
				active := subsets[rng.Intn(len(subsets))]
				D := bc.box.Corner(func(s, t graph.NodeID) bool { return active[t] && rng.Intn(2) == 0 })
				if D.Total() == 0 {
					continue
				}
				before := obs.Default.Snapshot()
				got := ev.OptDAG(D)
				work := lpWork(before)
				want, wantWork := freshOptDAG(t, g, dags, D)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s workers=%d OptDAG #%d: %v (%#x), fresh model %v (%#x)", bc.name, workers, i,
						got, math.Float64bits(got), want, math.Float64bits(want))
				}
				if !maps.Equal(work, wantWork) {
					t.Fatalf("%s workers=%d OptDAG #%d: LP work %v, fresh model %v", bc.name, workers, i, work, wantWork)
				}
				matrices++
				key := make([]byte, n)
				for tt := 0; tt < n; tt++ {
					for s := 0; s < n; s++ {
						if D.D[s*n+tt] > 0 {
							key[tt] = 1
						}
					}
				}
				shapes[string(key)] = true
			}

			// The fan-out: every candidate not normalized before is solved.
			for round := 0; round < 2; round++ {
				for _, r := range routings {
					known := map[uint64]bool{}
					for h := range ev.cache.opt {
						known[h] = true
					}
					before := obs.Default.Snapshot()
					results := ev.PerfTop(r, 1<<20)
					work := lpWork(before)
					// A result is a fresh normalization when its matrix entered
					// the cache during the call (the closed-form single-pair
					// candidates never do).
					before = obs.Default.Snapshot()
					fresh := 0
					for _, res := range results {
						h := hashMatrix(res.WorstDM)
						got, solved := ev.cache.opt[h]
						if known[h] || !solved {
							continue
						}
						known[h] = true
						want, _ := freshOptDAG(t, g, dags, res.WorstDM)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s workers=%d PerfTop: norm %v (%#x), fresh model %v (%#x)", bc.name, workers,
								got, math.Float64bits(got), want, math.Float64bits(want))
						}
						fresh++
					}
					if wantWork := lpWork(before); !maps.Equal(work, wantWork) || work["coyote_lp_solves_total"] != float64(fresh) {
						t.Fatalf("%s workers=%d PerfTop: LP work %v, %d fresh models %v", bc.name, workers, work, fresh, wantWork)
					}
					matrices += fresh
				}
			}

			if matrices < 200 {
				t.Fatalf("%s workers=%d: only %d matrices normalized", bc.name, workers, matrices)
			}
			if idle := len(ev.cache.models); idle == 0 || idle > maxIdleModels {
				t.Fatalf("%s workers=%d: %d idle models, want 1..%d", bc.name, workers, idle, maxIdleModels)
			}
			if bc.name == "oblivious" && len(shapes) <= maxIdleModels {
				t.Fatalf("oblivious box produced %d active sets; the free list (%d) was never overrun", len(shapes), maxIdleModels)
			}
		}
	}
}

// TestOptDAGIsHistoryFree: OPTDAG(D) is a function of D alone. Probe
// matrices normalized by a fresh evaluator, by one at the end of a 150-solve
// chain over other matrices (with an adversary call in the middle), and by
// the same chain at Workers 1 and 4 all carry the same value bits.
func TestOptDAGIsHistoryFree(t *testing.T) {
	g, err := topo.Load("NSF")
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	dags := dagx.BuildAll(g, dagx.Augmented)
	for _, bc := range []struct {
		name string
		box  *demand.Box
	}{
		{"margin", demand.MarginBox(demand.Gravity(g, 1), 2)},
		{"oblivious", demand.ObliviousBox(n, 1)},
	} {
		rng := rand.New(rand.NewSource(7))
		corner := func() *demand.Matrix {
			for {
				if D := bc.box.Corner(func(s, t graph.NodeID) bool { return rng.Intn(2) == 0 }); D.Total() > 0 {
					return D
				}
			}
		}
		chain := make([]*demand.Matrix, 150)
		for i := range chain {
			chain[i] = corner()
		}
		probes := make([]*demand.Matrix, 12)
		for i := range probes {
			probes[i] = corner()
		}
		fresh := func(D *demand.Matrix) float64 {
			return NewEvaluator(g, dags, bc.box, EvalConfig{Workers: 1}).OptDAG(D)
		}
		afterChain := func(workers int) []float64 {
			ev := NewEvaluator(g, dags, bc.box, EvalConfig{Samples: 8, Seed: 9, Workers: workers})
			for i, D := range chain {
				ev.OptDAG(D)
				if i == len(chain)/2 {
					ev.PerfTop(ECMPOnDAGs(g, dags), 4)
				}
			}
			out := make([]float64, len(probes))
			for i, D := range probes {
				out[i] = ev.OptDAG(D)
			}
			return out
		}
		w1, w4 := afterChain(1), afterChain(4)
		for i, D := range probes {
			want := fresh(D)
			for _, got := range []struct {
				label string
				v     float64
			}{{"chain, workers=1", w1[i]}, {"chain, workers=4", w4[i]}} {
				if math.Float64bits(got.v) != math.Float64bits(want) {
					t.Fatalf("%s probe %d: %s %v (%#x), fresh evaluator %v (%#x)", bc.name, i, got.label,
						got.v, math.Float64bits(got.v), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestHashMatrixIsFNV1a: the inlined fingerprint is hash/fnv's 64-bit FNV-1a
// over the little-endian Float64bits of every entry. It keys the OPTDAG cache
// and deduplicates scenarios, so its value must never change.
func TestHashMatrixIsFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		D := demand.NewMatrix(1 + rng.Intn(12))
		for i := range D.D {
			switch rng.Intn(4) {
			case 0: // stays zero
			case 1:
				D.D[i] = math.Float64frombits(rng.Uint64())
			default:
				D.D[i] = rng.ExpFloat64()
			}
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, v := range D.D {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		if got, want := hashMatrix(D), h.Sum64(); got != want {
			t.Fatalf("trial %d: hashMatrix = %#x, hash/fnv = %#x", trial, got, want)
		}
	}
}
