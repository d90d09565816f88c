package localsearch

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/topo"
)

// rebuildValue is the value the evaluator must reproduce: the worst
// MaxUtilization over the matrices of uniform ECMP on freshly built
// shortest-path DAGs.
func rebuildValue(g *graph.Graph, mats []*demand.Matrix) float64 {
	r := pdrouting.Uniform(g, dagx.BuildAll(g, dagx.ShortestPath))
	worst := 0.0
	for _, dm := range mats {
		if u := r.MaxUtilization(dm); u > worst {
			worst = u
		}
	}
	return worst
}

// checkHeld fails unless the evaluator's committed rows equal
// dagx.ShortestPath's on its graph: Dist bits, membership and order.
func checkHeld(t testing.TB, ev *evaluator, where string) {
	t.Helper()
	for dst, s := range ev.cur {
		d := dagx.ShortestPath(ev.g, graph.NodeID(dst))
		for u := range d.Dist {
			if math.Float64bits(d.Dist[u]) != math.Float64bits(s.tree.Dist[u]) {
				t.Fatalf("%s: dst %d: held Dist[%d] %v, rebuilt %v", where, dst, u, s.tree.Dist[u], d.Dist[u])
			}
		}
		if !slices.Equal(d.Member, s.member) {
			t.Fatalf("%s: dst %d: held membership differs from the rebuilt DAG's", where, dst)
		}
		if !slices.Equal(d.Order, s.order) {
			t.Fatalf("%s: dst %d: held order %v, rebuilt %v", where, dst, s.order, d.Order)
		}
	}
}

// runMoves drives ev through moves drawn from rng against mats, checking
// every candidate value against a rebuild and the held rows after every
// commit. A move is kept when it improves or on a coin flip.
func runMoves(t testing.TB, ev *evaluator, mats []*demand.Matrix, rng *rand.Rand, moves int, name string) {
	t.Helper()
	cur := ev.value()
	if want := rebuildValue(ev.g, mats); math.Float64bits(cur) != math.Float64bits(want) {
		t.Fatalf("%s: initial value %v, rebuild %v", name, cur, want)
	}
	for i := 0; i < moves; i++ {
		id := graph.EdgeID(rng.Intn(ev.g.NumEdges()))
		old := ev.g.Edge(id).Weight
		w := math.Max(1, math.Round(old*moveFactors[rng.Intn(len(moveFactors))]))
		if w == old {
			w = old + 1
		}
		cand := ev.try(id, w)
		if want := rebuildValue(ev.g, mats); math.Float64bits(cand) != math.Float64bits(want) {
			t.Fatalf("%s: move %d (edge %d %v→%v): candidate %v, rebuild %v", name, i, id, old, w, cand, want)
		}
		if cand < cur || rng.Intn(2) == 0 {
			ev.commit()
			cur = cand
			checkHeld(t, ev, name)
		} else {
			ev.revert()
			if got := ev.g.Edge(id).Weight; got != old {
				t.Fatalf("%s: revert left weight %v, want %v", name, got, old)
			}
		}
	}
	checkHeld(t, ev, name)
}

// searchGraphs are the graphs the evaluator tests drive: the corpus
// topologies under INVERSECAPACITY weights and a seeded Barabási–Albert
// graph.
func searchGraphs(t testing.TB) map[string]*graph.Graph {
	ba, err := scen.Generate("ba", scen.Params{N: 24, M: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{"ba-24": ba}
	for _, name := range []string{"Abilene", "NSF", "Geant"} {
		graphs[name] = topo.MustLoad(name)
	}
	for _, g := range graphs {
		g.SetWeights(InverseCapacityWeights(g))
	}
	return graphs
}

// TestMoveEvalMatchesRebuild drives the evaluator through seeded random
// moves with a growing critical set (gravity, the box's worst case and a
// random matrix): every candidate value equals a from-scratch ECMP
// evaluation bit for bit, and after every commit the held rows equal
// dagx.ShortestPath's.
func TestMoveEvalMatchesRebuild(t *testing.T) {
	for name, g := range searchGraphs(t) {
		rng := rand.New(rand.NewSource(3))
		gravity := demand.Gravity(g, 1)
		box := demand.MarginBox(gravity, 2)
		random := demand.NewMatrix(g.NumNodes())
		for i := range random.D {
			if i%(g.NumNodes()+1) != 0 && rng.Intn(3) == 0 {
				random.D[i] = rng.Float64()
			}
		}
		ev := newEvaluator(g)
		var mats []*demand.Matrix
		for _, dm := range []*demand.Matrix{gravity, nil, random} {
			if dm == nil {
				dm, _ = ev.worstCaseDM(box)
			}
			ev.addMatrix(dm)
			mats = append(mats, dm)
			runMoves(t, ev, mats, rng, 60, name)
		}
	}
}

// TestReweightPins pins the weights, worst-case utilization and critical set
// of the search at Reweight's neighbourhood on the corpus (3 rounds of
// 10·|E| moves, gravity margin 2, seed 7), recorded when every move rebuilt
// every DAG from scratch. TestReweightIsOptimizeAtTenMovesPerEdge ties
// Reweight's weights to Optimize's.
func TestReweightPins(t *testing.T) {
	pins := []struct {
		name    string
		weights []float64
		worst   uint64 // WorstUtil bits
		crit    uint64 // FNV-1a of the critical matrices' bits
	}{
		{"Abilene",
			[]float64{2, 2, 4, 4, 2, 2, 4, 4, 8, 8, 1, 1, 1, 1, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 4, 4, 1, 1, 2, 2},
			0x3ff7b33333333333, 0xc45546d94dfbe8b4},
		{"NSF",
			[]float64{2, 2, 1, 1, 2, 2, 2, 2, 1, 1, 4, 4, 1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 1, 1, 8, 8, 1, 1, 4, 4, 2, 2, 2, 2, 1, 1, 4, 4, 4, 4, 2, 2},
			0x402deb851eb851ed, 0x8fcbb1b7ed552e09},
		{"Geant",
			[]float64{1, 1, 1, 1, 2, 2, 4, 4, 1, 1, 4, 4, 1, 1, 16, 16, 1, 1, 16, 16, 8, 8, 1, 1, 2, 2, 1, 1, 1, 1, 2, 2, 4, 4, 2, 2,
				4, 4, 1, 1, 4, 4, 4, 4, 2, 2, 4, 4, 4, 4, 16, 16, 2, 2, 2, 2, 2, 2, 1, 1, 2, 2, 2, 2, 4, 4, 1, 1, 1, 1, 1, 1},
			0x4013f0f0f0f0f0f0, 0x8d9df6e8ee13525},
	}
	for _, p := range pins {
		g := topo.MustLoad(p.name)
		res, err := Optimize(g, demand.MarginBox(demand.Gravity(g, 1), 2), Config{OuterIters: 3, InnerMoves: 10 * g.NumEdges(), Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if !slices.Equal(res.Weights, p.weights) {
			t.Errorf("%s: weights %v, pinned %v", p.name, res.Weights, p.weights)
		}
		if got := math.Float64bits(res.WorstUtil); got != p.worst {
			t.Errorf("%s: WorstUtil %v (%#x), pinned %v", p.name, res.WorstUtil, got, math.Float64frombits(p.worst))
		}
		h := fnv.New64a()
		for _, m := range res.CriticalDMs {
			for _, v := range m.D {
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
			}
		}
		if got := h.Sum64(); got != p.crit {
			t.Errorf("%s: critical set hash %#x, pinned %#x", p.name, got, p.crit)
		}
	}
}

// TestMoveAllocs: once the evaluator holds its rows, evaluating and
// rejecting a move allocates nothing.
func TestMoveAllocs(t *testing.T) {
	g := topo.MustLoad("Geant")
	g.SetWeights(InverseCapacityWeights(g))
	box := demand.MarginBox(demand.Gravity(g, 1), 2)
	ev := newEvaluator(g)
	dm, _ := ev.worstCaseDM(box)
	ev.addMatrix(dm)
	ev.addMatrix(demand.Gravity(g, 1))
	id := graph.EdgeID(0)
	allocs := testing.AllocsPerRun(50, func() {
		w := ev.g.Edge(id).Weight
		ev.try(id, w*4)
		ev.revert()
		id = (id + 1) % graph.EdgeID(g.NumEdges())
	})
	if allocs != 0 {
		t.Fatalf("a rejected move allocates %v times, want 0", allocs)
	}
}

// TestSearchCounts reads the search's work counts as registry deltas: every
// evaluated move counts once, and on Geant a move rebuilds fewer than n
// destinations on average.
func TestSearchCounts(t *testing.T) {
	g := topo.MustLoad("Geant")
	box := demand.MarginBox(demand.Gravity(g, 1), 2)
	before := obs.Default.Snapshot()
	if _, err := Reweight(g, box, 3, 7); err != nil {
		t.Fatal(err)
	}
	moved := obs.Default.Snapshot().Since(before)
	moves := movedBy(t, moved, "coyote_localsearch_moves_total")
	rebuilds := movedBy(t, moved, "coyote_localsearch_dest_rebuilds_total")
	if moves == 0 || moves > float64(3*10*g.NumEdges()) {
		t.Fatalf("%v moves evaluated in 3 rounds of %d", moves, 10*g.NumEdges())
	}
	if perMove := rebuilds / moves; !(perMove > 0 && perMove < float64(g.NumNodes())) {
		t.Fatalf("%v destinations rebuilt per move, want in (0, %d)", perMove, g.NumNodes())
	}
	t.Logf("%v moves, %.1f of %d destinations rebuilt per move", moves, rebuilds/moves, g.NumNodes())
}

// movedBy reads key from a Snapshot.Since map and fails the test when the
// registry holds no such series.
func movedBy(tb testing.TB, moved map[string]float64, key string) float64 {
	tb.Helper()
	v, ok := moved[key]
	if !ok {
		tb.Fatalf("the registry has no series %s", key)
	}
	return v
}

// FuzzMoveEval builds a small graph and a move sequence from the input and
// checks the evaluator against a rebuild bit for bit. Byte 0 sets the node
// count (3..8); then byte triples add links (from, to, capacity) until a
// zero byte; the rest are move pairs (edge, factor) whose high bit of the
// factor byte commits the move.
func FuzzMoveEval(f *testing.F) {
	f.Add([]byte{4, 1, 2, 3, 2, 3, 5, 3, 4, 2, 4, 1, 9, 1, 3, 4, 0, 1, 0x81, 3, 2, 5, 0x83, 0, 1})
	f.Add([]byte{6, 1, 2, 1, 2, 3, 1, 3, 4, 1, 4, 5, 1, 5, 6, 1, 6, 1, 1, 1, 4, 2, 0, 2, 0x80, 7, 0x81, 3, 2, 9, 0x82})
	f.Add([]byte{3, 1, 2, 1, 1, 2, 4, 2, 3, 1, 0, 0, 0x80, 1, 0x80, 2, 0x83, 3, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4 {
			return
		}
		n := 3 + int(in[0])%6
		g := graph.New()
		g.AddNodes(n)
		i := 1
		for ; i+2 < len(in) && in[i] != 0; i += 3 {
			a, b := graph.NodeID(int(in[i])%n), graph.NodeID(int(in[i+1])%n)
			if a == b {
				continue
			}
			if _, dup := g.FindEdge(a, b); dup {
				continue
			}
			g.AddLink(a, b, float64(1+in[i+2]%16), 1)
		}
		if g.NumEdges() == 0 {
			return
		}
		g.SetWeights(InverseCapacityWeights(g))
		mats := []*demand.Matrix{demand.Gravity(g, 1)}
		ev := newEvaluator(g)
		ev.addMatrix(mats[0])
		if dm, _ := ev.worstCaseDM(demand.MarginBox(mats[0], 2)); dm != nil {
			ev.addMatrix(dm)
			mats = append(mats, dm)
		}
		cur := ev.value()
		for i++; i+1 < len(in); i += 2 {
			id := graph.EdgeID(int(in[i]) % g.NumEdges())
			old := g.Edge(id).Weight
			w := math.Max(1, math.Round(old*moveFactors[int(in[i+1])%len(moveFactors)]))
			if w == old {
				w = old + 1
			}
			cand := ev.try(id, w)
			if want := rebuildValue(g, mats); math.Float64bits(cand) != math.Float64bits(want) {
				t.Fatalf("edge %d %v→%v: candidate %v, rebuild %v", id, old, w, cand, want)
			}
			if in[i+1]&0x80 != 0 {
				ev.commit()
				cur = cand
				checkHeld(t, ev, "fuzz")
			} else {
				ev.revert()
				if got := ev.value(); math.Float64bits(got) != math.Float64bits(cur) {
					t.Fatalf("revert of edge %d: value %v, before the move %v", id, got, cur)
				}
			}
		}
		checkHeld(t, ev, "fuzz")
	})
}
