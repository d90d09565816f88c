package mcf

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/topo"
)

// kernelGraphs are the topologies the kernel is pinned on: three corpus
// networks, the two generated sizes around the exact/FPTAS crossover, and a
// uniform-capacity grid — every initial length δ/c equal, the worst case
// for heap ties.
func kernelGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	out := make(map[string]*graph.Graph)
	for _, name := range []string{"Abilene", "NSF", "Geant"} {
		g, err := topo.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = g
	}
	for name, p := range map[string]struct {
		gen string
		p   scen.Params
	}{
		"waxman48": {"waxman", scen.Params{N: 48, Seed: 7}},
		"grid5x6":  {"grid", scen.Params{Rows: 5, Cols: 6, CapClasses: []float64{1}}},
	} {
		g, err := scen.Generate(p.gen, p.p)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = g
	}
	out["ba42"], _ = ba42(t)
	return out
}

func ba42(t testing.TB) (*graph.Graph, []*dagx.DAG) {
	t.Helper()
	g, err := scen.Generate("ba", scen.Params{N: 42, M: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return g, dagx.BuildAll(g, dagx.Augmented)
}

// randomCorner picks each entry of base's margin-2 box at its lower or
// upper end — the shape of the matrices the adversary normalizes.
func randomCorner(base *demand.Matrix, rng *rand.Rand) *demand.Matrix {
	D := base.Clone()
	for i := range D.D {
		if rng.Intn(2) == 0 {
			D.D[i] *= 2
		} else {
			D.D[i] /= 2
		}
	}
	return D
}

func sameBits(t *testing.T, label string, wantMLU float64, wantFlows [][]float64, gotMLU float64, gotFlows [][]float64) {
	t.Helper()
	if math.Float64bits(wantMLU) != math.Float64bits(gotMLU) {
		t.Fatalf("%s: MLU %v (%#x), reference %v (%#x)", label,
			gotMLU, math.Float64bits(gotMLU), wantMLU, math.Float64bits(wantMLU))
	}
	if len(wantFlows) != len(gotFlows) {
		t.Fatalf("%s: %d flow rows, reference %d", label, len(gotFlows), len(wantFlows))
	}
	for d := range wantFlows {
		if (wantFlows[d] == nil) != (gotFlows[d] == nil) || len(wantFlows[d]) != len(gotFlows[d]) {
			t.Fatalf("%s: destination %d: row shape differs from the reference", label, d)
		}
		for e := range wantFlows[d] {
			if math.Float64bits(wantFlows[d][e]) != math.Float64bits(gotFlows[d][e]) {
				t.Fatalf("%s: flow[%d][%d] = %v, reference %v", label, d, e, gotFlows[d][e], wantFlows[d][e])
			}
		}
	}
}

// TestKernelMatchesReference: MLU and every flow of the kernel equal the
// reference oracle (reference_test.go) bit for bit on augmented DAGs,
// across the accuracy range, through Solve, MLU and the one-shot wrapper.
func TestKernelMatchesReference(t *testing.T) {
	for name, g := range kernelGraphs(t) {
		name, g := name, g
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(11))
			base := demand.Gravity(g, 1)
			dags := dagx.BuildAll(g, dagx.Augmented)
			a := NewApprox(g, dags)
			for _, eps := range []float64{0.05, 0.1, 0.4} {
				D := randomCorner(base, rng)
				if n := g.NumNodes(); eps < 0.1 && n > 30 {
					// Phases grow like 1/eps²: keep the tight accuracy
					// affordable on the big graphs.
					D = restrictDestinations(D, 0, graph.NodeID(n/3), graph.NodeID(n-1))
				}
				label := fmt.Sprintf("eps=%g", eps)
				wantMLU, wantFlows, err := refMinMLUApprox(g, dags, D, eps)
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				gotMLU, gotFlows, err := a.Solve(D, eps)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameBits(t, label, wantMLU, wantFlows, gotMLU, gotFlows)
				valueOnly, err := a.MLU(D, eps, nil)
				if err != nil || math.Float64bits(valueOnly) != math.Float64bits(wantMLU) {
					t.Fatalf("%s: MLU() = %v, %v; reference %v", label, valueOnly, err, wantMLU)
				}
				oneMLU, oneFlows, err := MinMLUApprox(g, dags, D, eps)
				if err != nil {
					t.Fatalf("%s: one-shot: %v", label, err)
				}
				sameBits(t, label+" one-shot", wantMLU, wantFlows, oneMLU, oneFlows)
			}
		})
	}
}

// TestKernelSparseDemand covers destinations without demand (nil flow
// rows) and sources without demand inside an active column.
func TestKernelSparseDemand(t *testing.T) {
	g, dags := ba42(t)
	D := restrictDestinations(demand.Gravity(g, 1), 3, 17, 41)
	D.D[5*D.N+17] = 0
	wantMLU, wantFlows, err := refMinMLUApprox(g, dags, D, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	gotMLU, gotFlows, err := MinMLUApprox(g, dags, D, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "sparse", wantMLU, wantFlows, gotMLU, gotFlows)
}

// TestApproxIndexReuse: one index solving many different matrices in a row
// — dirty workspace, varying destination sets — gives the bits of fresh
// one-shot calls.
func TestApproxIndexReuse(t *testing.T) {
	g, dags := ba42(t)
	a := NewApprox(g, dags)
	rng := rand.New(rand.NewSource(3))
	base := demand.Gravity(g, 1)
	for i := 0; i < 60; i++ {
		D := randomCorner(base, rng)
		if i%3 == 1 {
			D = restrictDestinations(D, graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes())))
		}
		wantMLU, wantFlows, err := MinMLUApprox(g, dags, D, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		gotMLU, gotFlows, err := a.Solve(D, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("matrix %d", i), wantMLU, wantFlows, gotMLU, gotFlows)
		if v, err := a.MLU(D, 0.4, nil); err != nil || math.Float64bits(v) != math.Float64bits(wantMLU) {
			t.Fatalf("matrix %d: MLU() = %v, %v; fresh %v", i, v, err, wantMLU)
		}
	}
}

// TestApproxLengthOverflowIsUnroutable: a demand the OSPF-weight scaling
// pass can route but whose only path has length δ/c = +Inf is reported as
// ErrUnroutable, not as a failure to complete a phase after eight retries.
func TestApproxLengthOverflowIsUnroutable(t *testing.T) {
	g := graph.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddEdge(a, b, 1e-310, 1)
	g.AddEdge(b, a, 1, 1)
	D := demand.NewMatrix(2)
	D.Set(a, b, 1e-300)
	before := obs.Default.Snapshot()
	mlu, _, err := MinMLUApprox(g, dagx.BuildAll(g, dagx.Augmented), D, 0.4)
	if !errors.Is(err, ErrUnroutable) || !math.IsInf(mlu, 1) {
		t.Fatalf("got mlu=%v err=%v, want +Inf and ErrUnroutable", mlu, err)
	}
	for k, v := range obs.Default.Snapshot().Since(before) {
		if strings.HasPrefix(k, "coyote_mcf_fptas_") && v != 0 {
			t.Fatalf("a failed solve moved %s by %v", k, v)
		}
	}
}

// TestApproxCapacitySpread: on the path 0–1–2 with link 0–1 at capacity
// 1e-20 (or the subnormal 1e-310) and link 1–2 at 1, unit demands 0→1 and
// 1→2 scale to at or below the routing floor (to 0 when 1/c overflows), so
// no phase routes anything. The solve must return a finite MLU or an error —
// never MLU 0 or NaN with a nil error — and the reference oracle agrees.
func TestApproxCapacitySpread(t *testing.T) {
	for _, c := range []float64{1e-20, 1e-310} {
		g := graph.New()
		g.AddNodes(3)
		g.AddLink(0, 1, c, 1)
		g.AddLink(1, 2, 1, 1)
		D := demand.NewMatrix(3)
		D.Set(0, 1, 1)
		D.Set(1, 2, 1)
		dags := dagx.BuildAll(g, dagx.Augmented)
		mlu, _, err := MinMLUApprox(g, dags, D, 0.4)
		if err == nil && (math.IsNaN(mlu) || math.IsInf(mlu, 0) || mlu <= 0) {
			t.Fatalf("capacity %g: MLU %v with a nil error", c, mlu)
		}
		refMLU, _, refErr := refMinMLUApprox(g, dags, D, 0.4)
		if !errors.Is(refErr, err) || math.Float64bits(refMLU) != math.Float64bits(mlu) {
			t.Fatalf("capacity %g: kernel %v (%v), reference %v (%v)", c, mlu, err, refMLU, refErr)
		}
	}
}

func TestApproxRejectsWrongSize(t *testing.T) {
	g, _ := paperExample()
	if _, err := NewApprox(g, dagx.BuildAll(g, dagx.Augmented)).MLU(demand.NewMatrix(g.NumNodes()+1), 0.1, nil); err == nil {
		t.Fatal("want an error for a matrix of the wrong dimension")
	}
}

func TestCheckEps(t *testing.T) {
	for _, eps := range []float64{0, 0.05, 0.1, 0.49} {
		if err := CheckEps(eps); err != nil {
			t.Errorf("CheckEps(%v) = %v, want nil", eps, err)
		}
	}
	for _, eps := range []float64{-0.1, 0.5, 0.9, math.NaN(), math.Inf(1)} {
		var ee *EpsError
		if err := CheckEps(eps); !errors.As(err, &ee) {
			t.Errorf("CheckEps(%v) = %v, want *EpsError", eps, err)
		}
	}
	g, ids := paperExample()
	D := demand.NewMatrix(g.NumNodes())
	D.Set(ids["s1"], ids["t"], 1)
	var ee *EpsError
	if _, _, err := MinMLUApprox(g, dagx.BuildAll(g, dagx.Augmented), D, 0.5); !errors.As(err, &ee) || ee.Eps != 0.5 {
		t.Fatalf("MinMLUApprox(eps=0.5) error = %v, want *EpsError", err)
	}
}

// TestApproxWarmSolveAllocs: a value-only solve on a warm index allocates
// nothing beyond the pool round trip.
func TestApproxWarmSolveAllocs(t *testing.T) {
	g, dags := ba42(t)
	a := NewApprox(g, dags)
	D := demand.Gravity(g, 1)
	var sink float64
	allocs := testing.AllocsPerRun(5, func() {
		v, err := a.MLU(D, 0.4, nil)
		if err != nil {
			t.Fatal(err)
		}
		sink += v
	})
	if allocs > 2 {
		t.Fatalf("warm Approx.MLU allocates %.0f objects per solve, want ≤ 2", allocs)
	}
}

// TestApproxOneShotAllocs: the one-shot MinMLUApprox — index, workspace and
// flow rows built per call, the DAGs' out-edge lists reused — stays under a
// fixed allocation count at the scale-ba42 shape (eps 0.4, the corners of a
// margin-2 gravity box), the count the benchmark ledger reports as
// mcf.fptas_allocs_per_solve.
func TestApproxOneShotAllocs(t *testing.T) {
	g, dags := ba42(t)
	base := demand.Gravity(g, 1)
	corners := []*demand.Matrix{base.Clone().Scale(2), base.Clone().Scale(0.5)}
	i := 0
	solve := func() {
		if _, _, err := MinMLUApprox(g, dags, corners[i%len(corners)], 0.4); err != nil {
			t.Fatal(err)
		}
		i++
	}
	solve() // builds the DAGs' out-edge lists, which every later index shares
	allocs := testing.AllocsPerRun(4, solve)
	if allocs > 64 {
		t.Fatalf("one-shot MinMLUApprox allocates %.0f objects per solve, want ≤ 64", allocs)
	}
	t.Logf("one-shot MinMLUApprox: %.0f allocations per solve", allocs)
}

// TestExactWarmSolveAllocs: re-targeting a warmed exact model and solving it
// for the value from its crash basis allocates next to nothing — the LP, the
// simplex workspace, the LU buffers and update arenas, the in-trees and the
// crash status buffer are the model's.
func TestExactWarmSolveAllocs(t *testing.T) {
	g, err := topo.Load("Geant")
	if err != nil {
		t.Fatal(err)
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	rng := rand.New(rand.NewSource(11))
	base := demand.Gravity(g, 1)
	Ds := make([]*demand.Matrix, 6)
	for i := range Ds {
		Ds[i] = randomCorner(base, rng)
	}
	mm := NewMinMLUModel(g, dags, Ds[0])
	solve := func(D *demand.Matrix) {
		if err := mm.SetDemands(D); err != nil {
			t.Fatal(err)
		}
		if _, err := mm.SolveMLU(nil); err != nil {
			t.Fatal(err)
		}
	}
	// One pass grows the update arenas and LU buffers to what these solves
	// need.
	for _, D := range Ds {
		solve(D)
	}
	i := 0
	allocs := testing.AllocsPerRun(12, func() {
		solve(Ds[i%len(Ds)])
		i++
	})
	if allocs > 4 {
		t.Fatalf("exact SetDemands+SolveMLU allocates %.0f objects per solve, want ≤ 4", allocs)
	}
	t.Logf("exact SetDemands+SolveMLU: %.0f allocations per solve", allocs)
}

// tieLengths are the edge lengths FuzzApproxTree draws from: small values
// that tie often, zero, subnormals, and values whose sums overflow to +Inf.
var tieLengths = []float64{1, 1, 2, 0.5, 3, 0, 5e-324, 1e-310, 1e308, math.MaxFloat64}

// FuzzApproxTree: on random graphs of at most 8 nodes with augmented DAGs,
// the kernel's shortest-path tree toward every destination equals the
// Bellman–Ford oracle's (spTree) bit for bit — dist and parent — under edge
// lengths drawn from tieLengths, and bott is the least capacity on each tree
// path; a solve of a random matrix on the same index finishes with a
// positive, finite MLU or reports ErrUnroutable or the routing-floor error.
func FuzzApproxTree(f *testing.F) {
	f.Add([]byte{4, 1, 0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{7, 0, 9, 200, 17, 33, 5, 61, 2, 0, 90, 14, 7, 255, 3, 8, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{2, 3, 0, 1, 1, 0, 5, 9, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%7
		ring := data[1]%2 == 1
		data = data[2:]
		g := graph.New()
		g.AddNodes(n)
		// A ring of links when asked for, then a byte pair per edge: its
		// endpoints, then its capacity (a subnormal and a huge value among
		// them) and weight.
		caps := []float64{1, 2, 1e-310, 1e300}
		if ring {
			for v := 0; v < n; v++ {
				g.AddLink(graph.NodeID(v), graph.NodeID((v+1)%n), 1, 1)
			}
		}
		for k := 0; len(data) >= 2 && k < 3*n; k++ {
			from, to := int(data[0])%n, int(data[0]/8)%n
			if from != to {
				g.AddEdge(graph.NodeID(from), graph.NodeID(to), caps[data[1]%4], 1+float64(data[1]/4%3))
			}
			data = data[2:]
		}
		length := make([]float64, g.NumEdges())
		for e := range length {
			if e < len(data) {
				length[e] = tieLengths[int(data[e])%len(tieLengths)]
			} else {
				length[e] = 1
			}
		}
		dags := dagx.BuildAll(g, dagx.Augmented)
		a := NewApprox(g, dags)
		ws := a.pool.Get().(*workspace)
		for dst := 0; dst < n; dst++ {
			a.tree(ws, int32(dst), length)
			dist, parent := spTree(g, graph.NodeID(dst), length, dags[dst].Member)
			for u := 0; u < n; u++ {
				if math.Float64bits(ws.dist[u]) != math.Float64bits(dist[u]) || graph.EdgeID(ws.parent[u]) != parent[u] {
					t.Fatalf("toward %d: node %d has dist %v parent %d, oracle %v %d",
						dst, u, ws.dist[u], ws.parent[u], dist[u], parent[u])
				}
				bott := math.Inf(1)
				for v := graph.NodeID(u); parent[v] >= 0; v = g.Edge(parent[v]).To {
					bott = min(bott, g.Edge(parent[v]).Capacity)
				}
				if math.Float64bits(ws.bott[u]) != math.Float64bits(bott) {
					t.Fatalf("toward %d: node %d has bottleneck %v, path %v", dst, u, ws.bott[u], bott)
				}
			}
		}
		a.pool.Put(ws)
		D := demand.NewMatrix(n)
		for i, b := range data {
			s, dst := (i/n)%n, i%n
			if s != dst && b%3 != 0 {
				D.Set(graph.NodeID(s), graph.NodeID(dst), float64(b)/16)
			}
		}
		mlu, _, err := a.Solve(D, 0.4)
		switch {
		case errors.Is(err, ErrUnroutable), errors.Is(err, errBelowFloor):
		case err != nil:
			t.Fatalf("solve: %v; want success, ErrUnroutable or the routing-floor error", err)
		case D.Total() > 0 && !(mlu > 0 && mlu < math.Inf(1)):
			t.Fatalf("solve: MLU %v with a nil error", mlu)
		}
	})
}

// TestApproxConcurrentSolves: concurrent solves on one index never share a
// workspace (run under -race) and each returns the serial bits.
func TestApproxConcurrentSolves(t *testing.T) {
	g, dags := ba42(t)
	a := NewApprox(g, dags)
	rng := rand.New(rand.NewSource(5))
	base := demand.Gravity(g, 1)
	const k = 8
	Ds := make([]*demand.Matrix, k)
	want := make([]float64, k)
	for i := range Ds {
		Ds[i] = randomCorner(base, rng)
		v, err := a.MLU(Ds[i], 0.4, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	got := make([]float64, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = a.MLU(Ds[i], 0.4, nil)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil || math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("matrix %d: concurrent %v (%v), serial %v", i, got[i], errs[i], want[i])
		}
	}
}

// BenchmarkMinMLUApprox is one OPTDAG normalization at the scale-ba42
// shape (n=42, augmented DAGs, eps 0.4): the one-shot call, which builds
// the index per solve, against a value-only solve on a shared index. The
// work counts are deterministic.
func BenchmarkMinMLUApprox(b *testing.B) {
	g, dags := ba42(b)
	D := randomCorner(demand.Gravity(g, 1), rand.New(rand.NewSource(9)))
	shared := NewApprox(g, dags)
	for _, bc := range []struct {
		name  string
		solve func() (float64, error)
	}{
		{"one-shot", func() (float64, error) { v, _, err := MinMLUApprox(g, dags, D, 0.4); return v, err }},
		{"shared-index", func() (float64, error) { return shared.MLU(D, 0.4, nil) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			before := obs.Default.Snapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := bc.solve()
				if err != nil {
					b.Fatal(err)
				}
				sink += v
			}
			b.StopTimer()
			d := obs.Default.Snapshot().Since(before)
			b.ReportMetric(movedBy(b, d, "coyote_mcf_fptas_phases_total")/float64(b.N), "phases/op")
			b.ReportMetric(movedBy(b, d, "coyote_mcf_fptas_sptrees_total")/float64(b.N), "sptrees/op")
			_ = sink
		})
	}
}
