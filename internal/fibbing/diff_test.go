package fibbing

import (
	"slices"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/ospf"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/topo"
	"github.com/coyote-te/coyote/internal/wcmp"
)

// synth quantizes, synthesizes and verifies a routing, failing the test on
// error.
func synth(t *testing.T, g *graph.Graph, r *pdrouting.Routing) *Synthesis {
	t.Helper()
	q, err := wcmp.Apply(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := Synthesize(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, q, syn); err != nil {
		t.Fatal(err)
	}
	return syn
}

func TestDiffNoOpIsEmpty(t *testing.T) {
	g, ids := fig1(t)
	r := skewedRouting(t, g, ids)
	a := synth(t, g, r)
	b := synth(t, g, r)
	d := Diff(a, b)
	if d.Churn() != 0 {
		t.Fatalf("identical syntheses produced non-empty diff (churn %d)", d.Churn())
	}
	if err := VerifyDiff(a, b, d); err != nil {
		t.Fatalf("no-op diff failed verification: %v", err)
	}
}

func TestDiffFromNilIsFullInjection(t *testing.T) {
	g, ids := fig1(t)
	r := skewedRouting(t, g, ids)
	s := synth(t, g, r)
	d := Diff(nil, s)
	if len(d.Add) != s.FakeNodes || len(d.Remove) != 0 || len(d.Update) != 0 {
		t.Fatalf("diff from empty = %d adds %d removes %d updates, want %d/0/0",
			len(d.Add), len(d.Remove), len(d.Update), s.FakeNodes)
	}
	if err := VerifyDiff(nil, s, d); err != nil {
		t.Fatalf("full-injection diff failed verification: %v", err)
	}
}

// TestDiffSingleRatioChangeIsLocal: changing one node's splitting ratios
// toward one destination must only touch that destination's LSAs.
// touchedDestinations is the set of destinations whose LSA set a diff
// touches — the locality of a reconfiguration (a single-ratio change should
// touch a single destination).
func touchedDestinations(d *LSADiff) map[graph.NodeID]bool {
	seen := make(map[graph.NodeID]bool)
	for _, fs := range [][]ospf.FakeNode{d.Add, d.Remove, d.Update} {
		for _, f := range fs {
			seen[f.Dest] = true
		}
	}
	return seen
}

func TestDiffSingleRatioChangeIsLocal(t *testing.T) {
	g, ids := fig1(t)
	r1 := skewedRouting(t, g, ids) // s1 → t split 2/3, 1/3
	a := synth(t, g, r1)

	r2 := r1.Clone()
	es1s2, _ := g.FindEdge(ids["s1"], ids["s2"])
	es1v, _ := g.FindEdge(ids["s1"], ids["v"])
	if err := r2.SetRatios(ids["t"], ids["s1"], map[graph.EdgeID]float64{es1s2: 3.0 / 4, es1v: 1.0 / 4}); err != nil {
		t.Fatal(err)
	}
	b := synth(t, g, r2)

	d := Diff(a, b)
	if d.Churn() == 0 {
		t.Fatal("ratio change produced an empty diff")
	}
	if touched := touchedDestinations(d); len(touched) != 1 || !touched[ids["t"]] {
		t.Fatalf("diff touched destinations %v, want exactly [%d]", touched, ids["t"])
	}
	if err := VerifyDiff(a, b, d); err != nil {
		t.Fatalf("single-ratio diff failed verification: %v", err)
	}
	// The diff must be strictly smaller than a full re-injection.
	if d.Churn() >= a.FakeNodes+b.FakeNodes {
		t.Fatalf("churn %d not better than flush-and-reload %d", d.Churn(), a.FakeNodes+b.FakeNodes)
	}
}

// TestDiffFailureRecoveryRoundTrip: failing a link and recovering it must
// round-trip back to the original synthesis with an empty final diff, and
// every intermediate diff must verify.
func TestDiffFailureRecoveryRoundTrip(t *testing.T) {
	g, ids := fig1(t)
	r := skewedRouting(t, g, ids)
	normal := synth(t, g, r)

	// Fail the s2–t link: survivor keeps node IDs, re-derive a routing.
	link, _ := g.FindEdge(ids["s2"], ids["t"])
	survivor := g.WithoutLink(link)
	sdags := dagx.BuildAll(survivor, dagx.Augmented)
	failedSyn := synth(t, survivor, pdrouting.Uniform(survivor, sdags))

	dFail := Diff(normal, failedSyn)
	if err := VerifyDiff(normal, failedSyn, dFail); err != nil {
		t.Fatalf("failure diff failed verification: %v", err)
	}

	// Recover: synthesize the original routing again on the original graph.
	recovered := synth(t, g, r)
	dRecover := Diff(failedSyn, recovered)
	if err := VerifyDiff(failedSyn, recovered, dRecover); err != nil {
		t.Fatalf("recovery diff failed verification: %v", err)
	}
	if d := Diff(normal, recovered); d.Churn() != 0 {
		t.Fatalf("failure→recovery did not round-trip: residual churn %d", d.Churn())
	}
}

// TestDiffVerifierOnCorpus exercises the verifier on every corpus topology
// the synthesis tests use: perturb one destination's ratios and prove
// prev ⊕ diff ≡ next.
func TestDiffVerifierOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus diff sweep in -short mode")
	}
	for _, name := range []string{"NSF", "Abilene", "Geant"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g := topo.MustLoad(name)
			dags := dagx.BuildAll(g, dagx.Augmented)
			r1 := pdrouting.Uniform(g, dags)
			a := synth(t, g, r1)

			// Skew the first node with ≥ 2 DAG out-edges toward destination 0.
			r2 := r1.Clone()
			dst := graph.NodeID(0)
			skewed := false
			for u := 0; u < g.NumNodes() && !skewed; u++ {
				if graph.NodeID(u) == dst {
					continue
				}
				out := dags[dst].OutEdges(g, graph.NodeID(u))
				if len(out) < 2 {
					continue
				}
				ratios := make(map[graph.EdgeID]float64, len(out))
				rest := 0.25 / float64(len(out)-1)
				for i, id := range out {
					if i == 0 {
						ratios[id] = 0.75
					} else {
						ratios[id] = rest
					}
				}
				if err := r2.SetRatios(dst, graph.NodeID(u), ratios); err != nil {
					t.Fatal(err)
				}
				skewed = true
			}
			if !skewed {
				t.Skip("no multi-out-edge node found")
			}
			b := synth(t, g, r2)
			d := Diff(a, b)
			if err := VerifyDiff(a, b, d); err != nil {
				t.Fatalf("%s: diff failed verification: %v", name, err)
			}
			for dst := range touchedDestinations(d) {
				if dst != 0 {
					t.Fatalf("%s: diff touched destination %d, want only 0", name, dst)
				}
			}
		})
	}
}

// TestApplyDiffRejectsMismatch: a diff that does not fit the base lie set
// must be rejected rather than silently mis-applied when VerifyDiff replays
// it.
func TestApplyDiffRejectsMismatch(t *testing.T) {
	g, ids := fig1(t)
	s := synth(t, g, skewedRouting(t, g, ids))
	// Replaying a pure-add diff on top of s itself duplicates every LSA.
	if err := VerifyDiff(s, s, Diff(nil, s)); err == nil {
		t.Fatal("expected duplicate-add rejection")
	}
	// Removing from an empty set must fail too.
	if err := VerifyDiff(nil, nil, Diff(s, nil)); err == nil {
		t.Fatal("expected unknown-remove rejection")
	}
}

// TestVerifyDiffRejectsDroppedAdd: a ratio change re-advertises the lies
// toward one destination; a diff that leaves out any one of the LSAs it
// injects does not realize the new routing.
func TestVerifyDiffRejectsDroppedAdd(t *testing.T) {
	g, ids := fig1(t)
	r1 := skewedRouting(t, g, ids)
	a := synth(t, g, r1)
	r2 := r1.Clone()
	es1s2, _ := g.FindEdge(ids["s1"], ids["s2"])
	es1v, _ := g.FindEdge(ids["s1"], ids["v"])
	if err := r2.SetRatios(ids["t"], ids["s1"], map[graph.EdgeID]float64{es1s2: 3.0 / 4, es1v: 1.0 / 4}); err != nil {
		t.Fatal(err)
	}
	b := synth(t, g, r2)
	d := Diff(a, b)
	if len(d.Add) == 0 {
		t.Fatal("the ratio change adds no LSA; the fixture no longer exercises a dropped Add")
	}
	for i := range d.Add {
		short := *d
		short.Add = slices.Delete(slices.Clone(d.Add), i, i+1)
		if err := VerifyDiff(a, b, &short); err == nil {
			t.Errorf("diff without Add %q verified", d.Add[i].Name())
		}
	}
}

// TestVerifyDiffRejects: on the NSF fail diff, which adds, removes and
// updates LSAs, every diff that does not replay prev's lies into next's
// exactly is rejected.
func TestVerifyDiffRejects(t *testing.T) {
	normal, failed := nsfFailLies(t)
	d := Diff(normal, failed)
	if len(d.Add) == 0 || len(d.Remove) == 0 || len(d.Update) == 0 {
		t.Fatalf("fixture diff has %d adds %d removes %d updates; it must have all three", len(d.Add), len(d.Remove), len(d.Update))
	}
	type edit struct {
		name       string
		prev, next *Synthesis
		d          LSADiff
	}
	without := func(fs []ospf.FakeNode, i int) []ospf.FakeNode {
		return slices.Delete(slices.Clone(fs), i, i+1)
	}
	plus := func(fs []ospf.FakeNode, f ospf.FakeNode) []ospf.FakeNode {
		return append(slices.Clone(fs), f)
	}
	var cases []edit
	for i := range d.Add {
		cases = append(cases, edit{"drop an Add", normal, failed, LSADiff{without(d.Add, i), d.Remove, d.Update}})
	}
	for i := range d.Remove {
		cases = append(cases, edit{"drop a Remove", normal, failed, LSADiff{d.Add, without(d.Remove, i), d.Update}})
	}
	for i := range d.Update {
		cases = append(cases, edit{"drop an Update", normal, failed, LSADiff{d.Add, d.Remove, without(d.Update, i)}})
		up := slices.Clone(d.Update)
		up[i].CostDown *= 2
		cases = append(cases, edit{"change an Update's cost", normal, failed, LSADiff{d.Add, d.Remove, up}})
	}
	cases = append(cases,
		edit{"duplicate Add", normal, failed, LSADiff{plus(d.Add, d.Add[0]), d.Remove, d.Update}},
		edit{"Add of a present lie", normal, failed, LSADiff{plus(d.Add, d.Update[0]), d.Remove, d.Update}},
		edit{"Remove of an absent lie", normal, failed, LSADiff{d.Add, plus(d.Remove, d.Add[0]), d.Update}},
		edit{"Update of an absent lie", normal, failed, LSADiff{d.Add, d.Remove, plus(d.Update, d.Add[0])}},
	)
	for _, c := range cases {
		if err := VerifyDiff(c.prev, c.next, &c.d); err == nil {
			t.Errorf("%s: diff verified", c.name)
		}
	}
}
