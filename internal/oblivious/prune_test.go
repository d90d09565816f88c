package oblivious

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/gpopt"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/mcf"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/topo"
)

// exhaustiveOracle is the adversary as it was before PerfTop became
// bound-ordered: every deduplicated corner is normalized by OPTDAG, then the
// k best are kept. It shares the candidate generator with PerfTop and
// nothing else — its normalizations come from mcf directly and are memoized
// per (DAGs, engine) in its own map, never in the evaluator's cache, so one
// oracle serves every evaluator a test builds over the same DAGs.
type exhaustiveOracle struct {
	memo map[oracleKey]*oracleMemo
}

type oracleKey struct {
	dag0 *dagx.DAG
	eps  float64 // 0 for the exact engine
}

type oracleMemo struct {
	norms  map[uint64]float64
	approx *mcf.Approx
}

func newOracle() *exhaustiveOracle {
	return &exhaustiveOracle{memo: map[oracleKey]*oracleMemo{}}
}

func (o *exhaustiveOracle) optDAG(ev *Evaluator, D *demand.Matrix) float64 {
	key := oracleKey{dag0: ev.DAGs[0]}
	if !ev.exact() {
		key.eps = ev.cfg.Eps
	}
	m := o.memo[key]
	if m == nil {
		m = &oracleMemo{norms: map[uint64]float64{}}
		o.memo[key] = m
	}
	h := hashMatrix(D)
	if v, ok := m.norms[h]; ok {
		return v
	}
	var v float64
	var err error
	if ev.exact() {
		v, err = mcf.NewMinMLUModel(ev.G, ev.DAGs, D).SolveMLU(nil)
	} else {
		if m.approx == nil {
			m.approx = mcf.NewApprox(ev.G, ev.DAGs)
		}
		v, err = m.approx.MLU(D, ev.cfg.Eps, nil)
	}
	if err != nil {
		v = math.Inf(1)
	}
	m.norms[h] = v
	return v
}

// ranking is every result of the next PerfTop call on ev, best first: what
// PerfTop(r, k) must return the first k of.
func (o *exhaustiveOracle) ranking(ev *Evaluator, r *pdrouting.Routing) []Result {
	singles, corners := ev.adversaryInputs(r.LoadCoeffs(nil), ev.seq.Load()+1)
	all := append([]Result(nil), singles...)
	seen := map[uint64]bool{}
	for _, D := range corners {
		if D.Total() <= 0 || seen[hashMatrix(D)] {
			continue
		}
		seen[hashMatrix(D)] = true
		norm := o.optDAG(ev, D)
		if norm <= 0 || math.IsInf(norm, 1) {
			continue
		}
		mxlu := r.MaxUtilization(D)
		all = append(all, Result{Ratio: mxlu / norm, WorstDM: D, MxLU: mxlu, Norm: norm})
	}
	if len(all) == 0 {
		return []Result{{Ratio: math.Inf(-1)}}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Ratio > all[j].Ratio })
	return all
}

// check runs the oracle and then PerfTop on the same call and fails the test
// unless PerfTop returned the oracle's top-k. A normalization is a function
// of the matrix alone on both engines — the FPTAS does not depend on solve
// order, and every exact solve starts from the matrix's crash basis — so the
// two must agree bit for bit, matrix by matrix. It returns PerfTop's results
// so a trajectory continues on them.
func (o *exhaustiveOracle) check(t testing.TB, label string, ev *Evaluator, r *pdrouting.Routing, k int) []Result {
	t.Helper()
	all := o.ranking(ev, r)
	want := all[:min(k, len(all))]
	got := ev.PerfTop(r, k)
	if len(got) != len(want) {
		t.Fatalf("%s k=%d: PerfTop returned %d results, exhaustive %d", label, k, len(got), len(want))
	}
	hash := func(res Result) uint64 {
		if res.WorstDM == nil {
			return 0
		}
		return hashMatrix(res.WorstDM)
	}
	for i := range want {
		if got[i].Ratio != want[i].Ratio || hash(got[i]) != hash(want[i]) {
			t.Fatalf("%s k=%d: result %d is %x at %v, exhaustive %x at %v (must be identical)",
				label, k, i, hash(got[i]), got[i].Ratio, hash(want[i]), want[i].Ratio)
		}
	}
	return got
}

// checkedOptimize is Evaluator.Optimize with every adversary call checked
// against the oracle: the same seed normalizations, optimizer and rounds, the
// ECMP guarantee at k = 1, and one more k = 1 call on the final routing.
func (o *exhaustiveOracle) checkedOptimize(t testing.TB, label string, ev *Evaluator, optIters, advIters int, warm *gpopt.Optimizer, carry []*demand.Matrix) (*gpopt.Optimizer, []*demand.Matrix) {
	t.Helper()
	g, dags := ev.G, ev.DAGs
	var scenarios []gpopt.Scenario
	var critical []*demand.Matrix
	seen := map[uint64]bool{}
	add := func(D *demand.Matrix, norm float64) bool {
		if D == nil || D.Total() <= 0 || norm <= 0 || math.IsInf(norm, 1) || seen[hashMatrix(D)] {
			return false
		}
		seen[hashMatrix(D)] = true
		scenarios = append(scenarios, gpopt.NewScenario(g, D, norm))
		critical = append(critical, D)
		return true
	}
	maxCorner := ev.Box.Max.Clone()
	add(maxCorner, ev.OptDAG(maxCorner))
	mid := demand.NewMatrix(g.NumNodes())
	for i := range mid.D {
		mid.D[i] = math.Sqrt(ev.Box.Min.D[i] * ev.Box.Max.D[i])
	}
	add(mid, ev.OptDAG(mid))
	for _, D := range carry {
		add(D, ev.OptDAG(D))
	}
	cfg := gpopt.Config{Iters: optIters, Workers: ev.cfg.Workers}
	opt := warm
	if opt != nil && opt.Matches(g, dags) {
		opt.SetConfig(cfg)
	} else {
		opt = gpopt.New(g, dags, cfg)
	}
	for _, res := range o.check(t, label+" seed", ev, opt.Routing(), 4) {
		add(res.WorstDM, res.Norm)
	}
	for iter := 0; iter < advIters; iter++ {
		opt.Run(scenarios)
		anyNew := false
		for _, res := range o.check(t, label+" round", ev, opt.Routing(), 4) {
			anyNew = add(res.WorstDM, res.Norm) || anyNew
		}
		if !anyNew {
			break
		}
	}
	o.check(t, label+" ecmp", ev, ECMPOnDAGs(g, dags), 1)
	o.check(t, label+" final", ev, opt.Routing(), 1)
	return opt, critical
}

// pruneInstance is one topology of the oracle suite with the effort it gets.
type pruneInstance struct {
	name     string
	g        func(t testing.TB) *graph.Graph
	cfg      EvalConfig
	optIters int
	advIters int
}

func corpus(name string) func(testing.TB) *graph.Graph {
	return func(t testing.TB) *graph.Graph {
		g, err := topo.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

func generated(gen string, p scen.Params) func(testing.TB) *graph.Graph {
	return func(t testing.TB) *graph.Graph {
		g, err := scen.Generate(gen, p)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

var pruneInstances = []pruneInstance{
	{"Abilene", corpus("Abilene"), EvalConfig{Samples: 6, Seed: 3}, 60, 3},
	{"NSF", corpus("NSF"), EvalConfig{Samples: 6, Seed: 5}, 60, 3},
	{"Geant", corpus("Geant"), EvalConfig{Samples: 4, Seed: 1}, 30, 2},
	{"waxman-16", generated("waxman", scen.Params{N: 16, Seed: 7}), EvalConfig{Samples: 6, Seed: 2}, 40, 2},
	{"grid-3x4", generated("grid", scen.Params{Rows: 3, Cols: 4, Seed: 7}), EvalConfig{Samples: 6, Seed: 2}, 40, 2},
	{"ring-12", generated("ring", scen.Params{N: 12, Seed: 7}), EvalConfig{Samples: 6, Seed: 2}, 40, 2},
	{"Abilene-fptas", corpus("Abilene"), EvalConfig{Samples: 6, Seed: 3, Eps: 0.2, ExactNodeLimit: 1}, 60, 3},
	{"ba-42-fptas", generated("ba", scen.Params{N: 42, M: 2, Seed: 2}), EvalConfig{Samples: 3, Seed: 1, Eps: 0.4, ExactNodeLimit: 1}, 20, 1},
}

// TestPerfTopMatchesExhaustive is the acceptance test of the bound-ordered
// adversary: on every instance, over a margin box and an oblivious box (where
// the single-pair results set the bar), at one and four workers, every
// adversary call of a full Optimize trajectory — then of a rebind to a
// drifted box with the warm optimizer and carried matrices, as a session's
// UpdateBounds does it — returns the exhaustive adversary's top-k, and no
// certificate fails its soundness guard.
func TestPerfTopMatchesExhaustive(t *testing.T) {
	before := obs.Default.Snapshot()
	for _, in := range pruneInstances {
		if testing.Short() && in.name != "Abilene" && in.name != "ba-42-fptas" {
			continue
		}
		if raceDetector && (in.name == "Geant" || in.name == "NSF" || in.name == "waxman-16" || in.name == "ba-42-fptas") {
			// Under the race detector the serial reference solves of the
			// larger instances take minutes and exercise no code the smaller
			// ones leave out.
			continue
		}
		g := in.g(t)
		dags := dagx.BuildAll(g, dagx.Augmented)
		base := demand.Gravity(g, 1)
		boxes := []struct {
			name       string
			box, drift *demand.Box
		}{
			{"margin", demand.MarginBox(base, 2), demand.MarginBox(base.Clone().Scale(1.15), 2.5)},
			{"oblivious", demand.ObliviousBox(g.NumNodes(), 1), demand.ObliviousBox(g.NumNodes(), 1.5)},
		}
		o := newOracle()
		for _, bc := range boxes {
			for _, workers := range []int{1, 4} {
				label := in.name + "/" + bc.name
				cfg := in.cfg
				cfg.Workers = workers
				ev := NewEvaluator(g, dags, bc.box, cfg)
				warm, critical := o.checkedOptimize(t, label, ev, in.optIters, in.advIters, nil, nil)
				o.checkedOptimize(t, label+"/rebind", ev.WithBox(bc.drift), in.optIters/2, 1, warm, critical)
			}
		}
	}
	if !raceDetector {
		checkEvictingCall(t)
	}
	moved := obs.Default.Snapshot().Since(before)
	if v := movedBy(t, moved, "coyote_oblivious_bound_violations_total"); v != 0 {
		t.Errorf("%v dual certificates failed their soundness guard, want 0", v)
	}
	// The bounds must earn their keep: most uncached candidates go unsolved.
	pruned := movedBy(t, moved, "coyote_oblivious_candidates_total{pruned}")
	if solved := movedBy(t, moved, "coyote_oblivious_candidates_total{solved}"); pruned < 2*solved {
		t.Errorf("the adversary pruned %v candidates and solved %v; want at least two pruned per solve", pruned, solved)
	}
}

// checkEvictingCall is TestPerfTopMatchesExhaustive's case for a call that
// evicts certificates while candidates still wait: on a cold 42-node FPTAS
// evaluator (empty ring), PerfTop(r, 24) must solve at least 24 candidates
// before the bar exists, more than boundRingSize, so every add past the
// sixteenth overwrites a table some survivor may not have seen. The result
// is the exhaustive top 24, and the solved and pruned counts are those of
// re-bounding every survivor after every solve (read before re-bounding
// became lazy): a survivor that missed an evicted table would keep a looser
// bound and move them.
func checkEvictingCall(t *testing.T) {
	t.Helper()
	g, err := scen.Generate("ba", scen.Params{N: 42, M: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	box := demand.MarginBox(demand.Gravity(g, 1), 2)
	ev := NewEvaluator(g, dags, box, EvalConfig{Samples: 3, Seed: 1, Eps: 0.4, ExactNodeLimit: 1})
	before := obs.Default.Snapshot()
	newOracle().check(t, "ba-42-fptas/cold k=24", ev, ECMPOnDAGs(g, dags), 24)
	moved := obs.Default.Snapshot().Since(before)
	solved := movedBy(t, moved, "coyote_oblivious_candidates_total{solved}")
	pruned := movedBy(t, moved, "coyote_oblivious_candidates_total{pruned}")
	if solved != 34 || pruned != 102 {
		t.Errorf("cold k=24: solved %v and pruned %v candidates, want 34 and 102", solved, pruned)
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

// TestPerfTopAfterFailure covers what a link failure does to the adversary:
// a fresh evaluator over the survivor graph (nothing shared, the ring starts
// empty), the carried critical matrices re-normalized there, and — on the
// bridged graph — matrices with demand on pairs the survivor DAGs cannot
// route. Those must come out as the exhaustive adversary reports them:
// dropped, never a ratio, whether the ring already knows the pair is
// unreachable (second call) or not (first call).
func TestPerfTopAfterFailure(t *testing.T) {
	violations := mBoundViolations.Value()

	// A five-node ring with a pendant node behind a bridge.
	bridged := graph.New()
	var ids []graph.NodeID
	for _, name := range []string{"a", "b", "c", "d", "e", "p"} {
		ids = append(ids, bridged.AddNode(name))
	}
	for i := 0; i < 5; i++ {
		bridged.AddLink(ids[i], ids[(i+1)%5], 1+float64(i%2), 1)
	}
	bridge := bridged.AddLink(ids[0], ids[5], 1, 1)

	nsf := corpus("NSF")(t)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		link graph.EdgeID
		cut  bool // the failure disconnects a node
	}{
		{"NSF", nsf, nsf.Links()[3], false},
		{"bridged", bridged, bridge, true},
	} {
		for _, workers := range []int{1, 4} {
			cfg := EvalConfig{Samples: 6, Seed: 9, Workers: workers}
			n := tc.g.NumNodes()
			box := demand.ObliviousBox(n, 1)
			if !tc.cut {
				box = demand.MarginBox(demand.Gravity(tc.g, 1), 2)
			}
			o := newOracle()
			ev := NewEvaluator(tc.g, dagx.BuildAll(tc.g, dagx.Augmented), box, cfg)
			_, critical := o.checkedOptimize(t, tc.name, ev, 30, 2, nil, nil)

			survivor := tc.g.WithoutLink(tc.link)
			dags := dagx.BuildAll(survivor, dagx.Augmented)
			evF := NewEvaluator(survivor, dags, box, cfg)
			if tc.cut {
				// Two calls, so the second meets a ring that prices the
				// unreachable pairs at +Inf.
				for _, r := range []*pdrouting.Routing{ECMPOnDAGs(survivor, dags), pdrouting.Uniform(survivor, dags)} {
					for _, k := range []int{4, 1} {
						for _, res := range o.check(t, tc.name+"/failed", evF, r, k) {
							if res.WorstDM == nil || !(res.Ratio > 0) || math.IsInf(res.Norm, 1) {
								t.Fatalf("%s/failed: result %+v is not a routable matrix with a ratio", tc.name, res)
							}
							for v := 0; v < n-1; v++ {
								if res.WorstDM.At(ids[5], graph.NodeID(v)) > 0 || res.WorstDM.At(graph.NodeID(v), ids[5]) > 0 {
									t.Fatalf("%s/failed: a top-k matrix has demand on the disconnected node", tc.name)
								}
							}
						}
					}
				}
				if evF.cache.bounds.added == 0 {
					t.Fatalf("%s/failed: no certificate joined the ring", tc.name)
				}
				continue
			}
			o.checkedOptimize(t, tc.name+"/failed", evF, 15, 1, nil, critical)
			// Recovery rebinds the original evaluator, caches and ring intact.
			o.checkedOptimize(t, tc.name+"/recovered", ev.WithBox(box), 15, 1, nil, critical)
		}
	}
	if v := mBoundViolations.Value(); v != violations {
		t.Errorf("%d dual certificates failed their soundness guard, want 0", v-violations)
	}
}

// TestDualLengthBound is the weak-duality property behind the pruning, on
// both engines: for any edge lengths ℓ ≥ 0 scaled to Σ ℓ·c = 1 — random ones,
// and the certificates the solves hand back — the in-DAG distance table is a
// feasible dual point (mcf.CheckDual) and Σ D·dist_ℓ never exceeds OPTDAG(D)
// for random matrices D of the box; a harvested certificate of the exact
// engine is tight at its own matrix.
func TestDualLengthBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    func(testing.TB) *graph.Graph
		cfg  EvalConfig
	}{
		{"NSF-exact", corpus("NSF"), EvalConfig{}},
		{"waxman-16-exact", generated("waxman", scen.Params{N: 16, Seed: 7}), EvalConfig{}},
		{"NSF-fptas", corpus("NSF"), EvalConfig{ExactNodeLimit: 1, Eps: 0.2}},
		{"grid-3x4-fptas", generated("grid", scen.Params{Rows: 3, Cols: 4, Seed: 7}), EvalConfig{ExactNodeLimit: 1, Eps: 0.4}},
	} {
		g := tc.g(t)
		n, m := g.NumNodes(), g.NumEdges()
		dags := dagx.BuildAll(g, dagx.Augmented)
		for _, box := range []*demand.Box{demand.MarginBox(demand.Gravity(g, 1), 3), demand.ObliviousBox(n, 1)} {
			ev := NewEvaluator(g, dags, box, tc.cfg)
			rng := rand.New(rand.NewSource(17))
			randomD := func() *demand.Matrix {
				sparse := rng.Intn(2) == 0
				return box.Corner(func(s, t graph.NodeID) bool {
					if sparse {
						return rng.Intn(6) == 0
					}
					return rng.Intn(2) == 0
				})
			}
			tbl := make([]float64, n*n)
			w := func(v, t graph.NodeID) float64 { return tbl[int(v)*n+int(t)] }
			z := make([]float64, m)
			var lengths [][]float64

			// Harvested certificates.
			for i := 0; i < 6; i++ {
				D := randomD()
				if D.Total() == 0 {
					continue
				}
				norm, certified := ev.solveOptDAG(nil, D, z)
				if !certified {
					t.Fatalf("%s: solve of a routable matrix returned no certificate", tc.name)
				}
				distTable(g, dags, z, tbl)
				if err := mcf.CheckDual(g, dags, nil, z, w, 1e-12); err != nil {
					t.Fatalf("%s: harvested lengths: %v", tc.name, err)
				}
				lb := tableBound(tbl, D)
				if lb > norm*(1+1e-9) || ev.exact() && lb < norm*(1-1e-7) {
					t.Fatalf("%s: certificate bounds its own matrix by %.12g, OPTDAG %.12g", tc.name, lb, norm)
				}
				lengths = append(lengths, slices.Clone(z))
			}
			// Random lengths, a third of the edges at zero.
			for i := 0; i < 6; i++ {
				sum := 0.0
				for e := range z {
					z[e] = 0
					if rng.Intn(3) > 0 {
						z[e] = rng.ExpFloat64()
					}
					sum += z[e] * g.Edge(graph.EdgeID(e)).Capacity
				}
				for e := range z {
					z[e] /= sum
				}
				lengths = append(lengths, slices.Clone(z))
			}
			for _, l := range lengths {
				distTable(g, dags, l, tbl)
				if err := mcf.CheckDual(g, dags, nil, l, w, 1e-12); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				for i := 0; i < 8; i++ {
					D := randomD()
					if D.Total() == 0 {
						continue
					}
					if lb, norm := tableBound(tbl, D), ev.OptDAG(D); lb > norm*(1+1e-9) {
						t.Fatalf("%s: Σ D·dist = %.12g exceeds OPTDAG = %.12g", tc.name, lb, norm)
					}
				}
			}
		}
	}
}

// RaceDetector and CheckPerfTop — one adversary call checked against a fresh
// exhaustive oracle — are exported from this test file for the external
// session test.
const RaceDetector = raceDetector

func CheckPerfTop(t testing.TB, label string, ev *Evaluator, r *pdrouting.Routing, k int) {
	t.Helper()
	newOracle().check(t, label, ev, r, k)
}
