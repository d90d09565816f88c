package pdrouting

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
)

// paperExample builds Fig. 1a with the augmented DAG toward t.
func paperExample(t *testing.T) (*graph.Graph, map[string]graph.NodeID, []*dagx.DAG) {
	t.Helper()
	g := graph.New()
	ids := map[string]graph.NodeID{
		"s1": g.AddNode("s1"),
		"s2": g.AddNode("s2"),
		"v":  g.AddNode("v"),
		"t":  g.AddNode("t"),
	}
	g.AddLink(ids["s1"], ids["s2"], 1, 1)
	g.AddLink(ids["s1"], ids["v"], 1, 1)
	g.AddLink(ids["s2"], ids["v"], 1, 1)
	g.AddLink(ids["s2"], ids["t"], 1, 1)
	g.AddLink(ids["v"], ids["t"], 1, 1)
	dags := dagx.BuildAll(g, dagx.Augmented)
	return g, ids, dags
}

// TestECMPWorstCaseDemands checks ECMP on the running example under unit
// weights. The SP DAG toward t is then s1→{s2,v}, s2→{t}, v→{t}. Demand
// (2,0) splits perfectly (loads 1,1 → MxLU 1); demand (0,2) forces all of
// s2's traffic onto (s2,t) (MxLU 2 while the optimum is 1). The paper's
// Fig. 1b shows the *best achievable* ECMP weight setting, with oblivious
// ratio 3/2; unit weights are strictly worse (ratio 2), consistent with
// the paper's claim that no weights beat 3/2.
func TestECMPWorstCaseDemands(t *testing.T) {
	g, ids, _ := paperExample(t)
	spDags := dagx.BuildAll(g, dagx.ShortestPath)
	r := Uniform(g, spDags)
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Demand (2, 0): each of (s2,t) and (v,t) carries 1.
	D1 := demand.NewMatrix(g.NumNodes())
	D1.Set(ids["s1"], ids["t"], 2)
	if mlu := r.MaxUtilization(D1); math.Abs(mlu-1.0) > 1e-9 {
		t.Fatalf("ECMP MxLU(2,0) = %g, want 1.0", mlu)
	}
	// Demand (0, 2): s2 has a single shortest path, so (s2,t) carries 2.
	D2 := demand.NewMatrix(g.NumNodes())
	D2.Set(ids["s2"], ids["t"], 2)
	if mlu := r.MaxUtilization(D2); math.Abs(mlu-2.0) > 1e-9 {
		t.Fatalf("ECMP MxLU(0,2) = %g, want 2.0", mlu)
	}
}

// TestECMPFig1bWeights reproduces the exact Fig. 1b configuration by
// choosing weights that make both s1 and s2 split: w(s2,t)=2 puts s2's
// detour via v on a shortest path, and w(s1,v)=2 keeps s1's two paths at
// equal cost. Demand (2,0) then loads (v,t) with 3/2, the 3/2 oblivious
// performance the paper quotes.
func TestECMPFig1bWeights(t *testing.T) {
	g, ids, _ := paperExample(t)
	es2t, _ := g.FindEdge(ids["s2"], ids["t"])
	g.SetLinkWeight(es2t, 2)
	es1v, _ := g.FindEdge(ids["s1"], ids["v"])
	g.SetLinkWeight(es1v, 2)
	spDags := dagx.BuildAll(g, dagx.ShortestPath)
	r := Uniform(g, spDags)
	D1 := demand.NewMatrix(g.NumNodes())
	D1.Set(ids["s1"], ids["t"], 2)
	if mlu := r.MaxUtilization(D1); math.Abs(mlu-1.5) > 1e-9 {
		t.Fatalf("ECMP MxLU(2,0) = %g, want 1.5 (paper Fig. 1b)", mlu)
	}
	evt, _ := g.FindEdge(ids["v"], ids["t"])
	loads := r.LinkLoads(D1)
	if math.Abs(loads[evt]-1.5) > 1e-9 {
		t.Fatalf("load(v,t) = %g, want 1.5", loads[evt])
	}
}

// TestCoyoteFig1cRatios verifies the Fig. 1c configuration: s1 splits 1/2
// to s2 and 1/2 to v; s2 splits 2/3 to t and 1/3 to v; v sends 1 to t.
// With demand (2,0): load(s2,t) = 2·(1/2)·(2/3) = 2/3; load(v,t) = 1 +
// 2·(1/2)·(1/3) = 4/3 → MxLU 4/3, matching the paper's performance claim.
func TestCoyoteFig1cRatios(t *testing.T) {
	g, ids, dags := paperExample(t)
	r := Uniform(g, dags)
	tdag := dags[ids["t"]]
	// Check the augmented DAG orientation v->s2? No: in Fig. 1c traffic
	// flows s2 -> v. Our augmentation orients the tied link v->s2 (id
	// order). The paper's hand-drawn DAG uses s2->v; both are valid DAGs.
	// Build the Fig. 1c DAG explicitly.
	member := make([]bool, g.NumEdges())
	for _, pair := range [][2]string{{"s1", "s2"}, {"s1", "v"}, {"s2", "v"}, {"s2", "t"}, {"v", "t"}} {
		id, ok := g.FindEdge(ids[pair[0]], ids[pair[1]])
		if !ok {
			t.Fatalf("missing edge %v", pair)
		}
		member[id] = true
	}
	fig1c, err := dagx.FromEdges(g, ids["t"], member)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	dags2 := make([]*dagx.DAG, len(dags))
	copy(dags2, dags)
	dags2[ids["t"]] = fig1c
	r = NewZero(g, dags2)
	for tt := range dags2 {
		if graph.NodeID(tt) != ids["t"] {
			// Uniform ratios elsewhere (unused by this test).
			u := Uniform(g, dags2)
			r.Phi[tt] = u.Phi[tt]
		}
	}
	es1s2, _ := g.FindEdge(ids["s1"], ids["s2"])
	es1v, _ := g.FindEdge(ids["s1"], ids["v"])
	es2v, _ := g.FindEdge(ids["s2"], ids["v"])
	es2t, _ := g.FindEdge(ids["s2"], ids["t"])
	evt, _ := g.FindEdge(ids["v"], ids["t"])
	if err := r.SetRatios(ids["t"], ids["s1"], map[graph.EdgeID]float64{es1s2: 0.5, es1v: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := r.SetRatios(ids["t"], ids["s2"], map[graph.EdgeID]float64{es2t: 2.0 / 3, es2v: 1.0 / 3}); err != nil {
		t.Fatal(err)
	}
	if err := r.SetRatios(ids["t"], ids["v"], map[graph.EdgeID]float64{evt: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	_ = tdag

	D1 := demand.NewMatrix(g.NumNodes())
	D1.Set(ids["s1"], ids["t"], 2)
	if mlu := r.MaxUtilization(D1); math.Abs(mlu-4.0/3) > 1e-9 {
		t.Fatalf("Fig1c MxLU(2,0) = %g, want 4/3", mlu)
	}
	D2 := demand.NewMatrix(g.NumNodes())
	D2.Set(ids["s2"], ids["t"], 2)
	if mlu := r.MaxUtilization(D2); math.Abs(mlu-4.0/3) > 1e-9 {
		t.Fatalf("Fig1c MxLU(0,2) = %g, want 4/3", mlu)
	}
}

// TestUnitDemandConservation: one unit of s→t demand leaves s whole
// (f_st(s) = 1) and reaches t whole (f_st(t) = 1), read off the unit loads
// LoadCoeffs returns.
func TestUnitDemandConservation(t *testing.T) {
	g, ids, dags := paperExample(t)
	r := Uniform(g, dags)
	C := r.LoadCoeffs(ids["t"])[ids["s1"]]
	if f := edgeSum(C, g.Out(ids["s1"])); math.Abs(f-1) > 1e-9 {
		t.Fatalf("f_st(s) must be 1, got %g", f)
	}
	if f := edgeSum(C, g.In(ids["t"])); math.Abs(f-1) > 1e-9 {
		t.Fatalf("all flow must reach t: f[t] = %g", f)
	}
}

// edgeSum sums loads over the listed edges.
func edgeSum(loads []float64, ids []graph.EdgeID) float64 {
	sum := 0.0
	for _, id := range ids {
		sum += loads[id]
	}
	return sum
}

func TestExpectedHops(t *testing.T) {
	g, ids, _ := paperExample(t)
	spDags := dagx.BuildAll(g, dagx.ShortestPath)
	r := Uniform(g, spDags)
	// s1 → t: both 2-hop paths → expected 2.
	if h := r.ExpectedHops(ids["s1"], ids["t"]); math.Abs(h-2) > 1e-9 {
		t.Fatalf("ExpectedHops(s1,t) = %g, want 2", h)
	}
	if h := r.ExpectedHops(ids["t"], ids["t"]); h != 0 {
		t.Fatalf("ExpectedHops(t,t) = %g, want 0", h)
	}
}

func TestLoadCoeffsLinearity(t *testing.T) {
	g, ids, dags := paperExample(t)
	r := Uniform(g, dags)
	C := r.LoadCoeffs(ids["t"])
	// Route demand 3 from s1: loads must equal 3·C[s1].
	col := make([]float64, g.NumNodes())
	col[ids["s1"]] = 3
	loads := r.DestLoads(ids["t"], col)
	for e := range loads {
		if math.Abs(loads[e]-3*C[ids["s1"]][e]) > 1e-9 {
			t.Fatalf("edge %d: load %g != 3·coeff %g", e, loads[e], 3*C[ids["s1"]][e])
		}
	}
}

func TestSetRatiosErrors(t *testing.T) {
	g, ids, dags := paperExample(t)
	r := Uniform(g, dags)
	es2t, _ := g.FindEdge(ids["s2"], ids["t"])
	// Wrong count.
	if err := r.SetRatios(ids["t"], ids["s1"], map[graph.EdgeID]float64{es2t: 1}); err == nil {
		t.Fatal("SetRatios with wrong edge set should fail")
	}
	// Bad sum.
	es1s2, _ := g.FindEdge(ids["s1"], ids["s2"])
	es1v, _ := g.FindEdge(ids["s1"], ids["v"])
	if err := r.SetRatios(ids["t"], ids["s1"], map[graph.EdgeID]float64{es1s2: 0.9, es1v: 0.9}); err == nil {
		t.Fatal("SetRatios with sum 1.8 should fail")
	}
}

func TestFromFlows(t *testing.T) {
	g, ids, dags := paperExample(t)
	d := dags[ids["t"]]
	flows := make([]float64, g.NumEdges())
	es1s2, _ := g.FindEdge(ids["s1"], ids["s2"])
	es1v, _ := g.FindEdge(ids["s1"], ids["v"])
	flows[es1s2] = 3
	flows[es1v] = 1
	phi, err := FromFlows(g, d, flows)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(phi[es1s2]-0.75) > 1e-9 || math.Abs(phi[es1v]-0.25) > 1e-9 {
		t.Fatalf("ratios %g/%g, want 0.75/0.25", phi[es1s2], phi[es1v])
	}
	// Fallback: s2 had no flow → uniform over its DAG out-edges.
	sum := 0.0
	for _, id := range d.OutEdges(g, ids["s2"]) {
		sum += phi[id]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fallback ratios at s2 sum to %g", sum)
	}

	// FromFlowSet: the same ratios toward t; every destination without a
	// flow vector keeps the uniform split.
	set := make([][]float64, g.NumNodes())
	set[ids["t"]] = flows
	r, err := FromFlowSet(g, dags, set)
	if err != nil {
		t.Fatal(err)
	}
	uniform := Uniform(g, dags)
	for dst := range r.Phi {
		want := uniform.Phi[dst]
		if dst == int(ids["t"]) {
			want = phi
		}
		for e := range want {
			if r.Phi[dst][e] != want[e] {
				t.Fatalf("FromFlowSet: Phi[%d][%d] = %g, want %g", dst, e, r.Phi[dst][e], want[e])
			}
		}
	}
}

func TestFromFlowsRejectsOffDAGFlow(t *testing.T) {
	g, ids, dags := paperExample(t)
	d := dags[ids["t"]]
	flows := make([]float64, g.NumEdges())
	// Find an edge not in the DAG (e.g. t -> v).
	etv, ok := g.FindEdge(ids["t"], ids["v"])
	if !ok {
		t.Fatal("missing edge t->v")
	}
	flows[etv] = 1
	if _, err := FromFlows(g, d, flows); err == nil {
		t.Fatal("FromFlows should reject flow outside the DAG")
	}
}

func randomGraph(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New()
	g.AddNodes(n)
	for i := 0; i < n; i++ {
		g.AddLink(graph.NodeID(i), graph.NodeID((i+1)%n), 1+rng.Float64()*9, 1+float64(rng.Intn(4)))
	}
	for i := 0; i < n; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddLink(graph.NodeID(a), graph.NodeID(b), 1+rng.Float64()*9, 1+float64(rng.Intn(4)))
		}
	}
	return g
}

// Property: under any uniform routing on augmented DAGs, all demand reaches
// its destination (total inflow at t equals total demand toward t) and link
// loads are non-negative.
func TestPropertyDemandConservation(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(sz%10)
		g := randomGraph(rng, n)
		dags := dagx.BuildAll(g, dagx.Augmented)
		r := Uniform(g, dags)
		if r.Validate() != nil {
			return false
		}
		for trial := 0; trial < 3; trial++ {
			s := graph.NodeID(rng.Intn(n))
			tt := graph.NodeID(rng.Intn(n))
			if s == tt {
				continue
			}
			col := make([]float64, n)
			col[s] = 1
			if math.Abs(edgeSum(r.DestLoads(tt, col), g.In(tt))-1) > 1e-6 {
				return false
			}
		}
		D := demand.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					D.Set(graph.NodeID(i), graph.NodeID(j), rng.Float64()*5)
				}
			}
		}
		for _, l := range r.LinkLoads(D) {
			if l < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: link loads are linear in the demand matrix.
func TestPropertyLoadLinearity(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(sz%8)
		g := randomGraph(rng, n)
		dags := dagx.BuildAll(g, dagx.Augmented)
		r := Uniform(g, dags)
		D := demand.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					D.Set(graph.NodeID(i), graph.NodeID(j), rng.Float64()*5)
				}
			}
		}
		k := 1 + rng.Float64()*3
		l1 := r.LinkLoads(D)
		l2 := r.LinkLoads(D.Clone().Scale(k))
		for e := range l1 {
			if math.Abs(l2[e]-k*l1[e]) > 1e-6*(1+l1[e]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExportDeterministicAndComplete(t *testing.T) {
	g, ids, dags := paperExample(t)
	r := Uniform(g, dags)
	entries := r.Export()
	if len(entries) == 0 {
		t.Fatal("no FIB entries exported")
	}
	// Fractions at each (router, destination) sum to 1.
	sums := map[[2]string]float64{}
	for _, e := range entries {
		if e.Fraction <= 0 || e.Fraction > 1+1e-9 {
			t.Fatalf("bad fraction %g", e.Fraction)
		}
		sums[[2]string{e.Router, e.Destination}] += e.Fraction
	}
	for k, s := range sums {
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("fractions at %v sum to %g", k, s)
		}
	}
	// Deterministic ordering.
	again := r.Export()
	for i := range entries {
		if entries[i] != again[i] {
			t.Fatal("Export not deterministic")
		}
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded []FIBEntry
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(decoded) != len(entries) {
		t.Fatal("JSON round trip lost entries")
	}
	_ = ids
}
