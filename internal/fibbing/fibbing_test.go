package fibbing

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/ospf"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/topo"
	"github.com/coyote-te/coyote/internal/wcmp"
)

func fig1(t *testing.T) (*graph.Graph, map[string]graph.NodeID) {
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
	return g, ids
}

// skewedRouting builds a COYOTE-like routing with uneven ratios at s1.
func skewedRouting(t *testing.T, g *graph.Graph, ids map[string]graph.NodeID) *pdrouting.Routing {
	t.Helper()
	dags := dagx.BuildAll(g, dagx.Augmented)
	r := pdrouting.Uniform(g, dags)
	es1s2, _ := g.FindEdge(ids["s1"], ids["s2"])
	es1v, _ := g.FindEdge(ids["s1"], ids["v"])
	if err := r.SetRatios(ids["t"], ids["s1"], map[graph.EdgeID]float64{es1s2: 2.0 / 3, es1v: 1.0 / 3}); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSynthesizeAndVerifyFig1(t *testing.T) {
	g, ids := fig1(t)
	r := skewedRouting(t, g, ids)
	q, err := wcmp.Apply(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := Synthesize(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, q, syn); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
	if syn.FakeNodes == 0 {
		t.Fatal("skewed ratios must require lies")
	}
	// Realized ratios at s1 toward t must be 2/3, 1/3.
	fibs := syn.LSDB.SPF(ids["t"])
	ratios := fibs[ids["s1"]].Ratios()
	if math.Abs(ratios[ids["s2"]]-2.0/3) > 1e-9 {
		t.Fatalf("realized ratio toward s2 = %g, want 2/3", ratios[ids["s2"]])
	}
}

// TestRealizeIsTheThreeCalls: Realize must return exactly what the spelled
// out wcmp.Apply → Synthesize → Verify sequence returns, span only under a
// tracer, and pass quantization errors through.
func TestRealizeIsTheThreeCalls(t *testing.T) {
	g, ids := fig1(t)
	r := skewedRouting(t, g, ids)
	wantQ, err := wcmp.Apply(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantSyn, err := Synthesize(g, wantQ)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	for _, ctx := range []context.Context{context.Background(), obs.WithTracer(context.Background(), tr)} {
		q, syn, err := Realize(ctx, g, r, 3)
		if err != nil {
			t.Fatal(err)
		}
		if q.VirtualLinks != wantQ.VirtualLinks || syn.FakeNodes != wantSyn.FakeNodes {
			t.Fatalf("Realize: %d virtual links, %d fake nodes; want %d, %d",
				q.VirtualLinks, syn.FakeNodes, wantQ.VirtualLinks, wantSyn.FakeNodes)
		}
		if d := Diff(wantSyn, syn); d.Churn() != 0 {
			t.Fatalf("Realize synthesized a different lie set: churn %d", d.Churn())
		}
	}
	if n := tr.Len(); n != 2 {
		t.Fatalf("%d spans under a tracer, want 2 (quantize, synthesize)", n)
	}
	if _, _, err := Realize(context.Background(), g, r, -1); err == nil {
		t.Fatal("negative virtual-link budget accepted")
	}
}

func TestNoLiesForPlainECMP(t *testing.T) {
	g, ids := fig1(t)
	_ = ids
	// ECMP on shortest-path DAGs: quantization is all-1 multiplicities on
	// SP next-hops, so no destination needs lies.
	dags := dagx.BuildAll(g, dagx.ShortestPath)
	r := pdrouting.Uniform(g, dags)
	q, err := wcmp.Apply(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := Synthesize(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if syn.FakeNodes != 0 {
		t.Fatalf("plain ECMP needed %d fake nodes, want 0", syn.FakeNodes)
	}
	if err := Verify(g, q, syn); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
}

func TestForwardingIsLoopFree(t *testing.T) {
	g, ids := fig1(t)
	r := skewedRouting(t, g, ids)
	q, err := wcmp.Apply(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := Synthesize(g, q)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the realized FIBs from every source greedily through every
	// possible next-hop; must reach t within n hops.
	for t2 := 0; t2 < g.NumNodes(); t2++ {
		dest := graph.NodeID(t2)
		fibs := syn.LSDB.SPF(dest)
		for s := 0; s < g.NumNodes(); s++ {
			if s == t2 {
				continue
			}
			// BFS through FIB next-hops.
			seen := map[graph.NodeID]bool{graph.NodeID(s): true}
			frontier := []graph.NodeID{graph.NodeID(s)}
			for hop := 0; hop < g.NumNodes()+1 && len(frontier) > 0; hop++ {
				var next []graph.NodeID
				for _, u := range frontier {
					if u == dest {
						continue
					}
					if fibs[u] == nil {
						t.Fatalf("router %d has no FIB toward %d", u, dest)
					}
					for nh := range fibs[u] {
						if seen[nh] {
							continue
						}
						seen[nh] = true
						next = append(next, nh)
					}
				}
				frontier = next
			}
			if !seen[dest] {
				t.Fatalf("traffic from %d never reaches %d", s, t2)
			}
		}
	}
}

func TestSynthesizeOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus synthesis in -short mode")
	}
	g := topo.MustLoad("Abilene")
	dags := dagx.BuildAll(g, dagx.Augmented)
	r := pdrouting.Uniform(g, dags)
	q, err := wcmp.Apply(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := Synthesize(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, q, syn); err != nil {
		t.Fatalf("Abilene verification failed: %v", err)
	}
	readBack(t, q, syn)
}

// readBack reads the forwarding SPF installs over syn's LSDB back as a
// routing and requires its ratios to be q's on every (destination, edge).
func readBack(t *testing.T, q *wcmp.QuantizedRouting, syn *Synthesis) *pdrouting.Routing {
	t.Helper()
	rr, err := RealizedRouting(syn.LSDB)
	if err != nil {
		t.Fatal(err)
	}
	for dst, phi := range q.Routing.Phi {
		for e, want := range phi {
			if got := rr.Phi[dst][e]; math.Abs(got-want) > 1e-12 {
				t.Fatalf("toward %d, edge %d: realized ratio %g, quantized %g", dst, e, got, want)
			}
		}
	}
	return rr
}

// TestRealizedRoutingReadsBackCoyote: a COYOTE routing, quantized and turned
// into lies, reads back from SPF over the lies as the quantized routing — the
// same ratios, and the same MLU on every critical matrix of the run.
func TestRealizedRoutingReadsBackCoyote(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus COYOTE runs in -short mode")
	}
	for _, name := range []string{"Abilene", "NSF", "Geant"} {
		t.Run(name, func(t *testing.T) {
			g := topo.MustLoad(name)
			box := demand.MarginBox(demand.Gravity(g, 1), 2)
			ev := oblivious.NewEvaluator(g, dagx.BuildAll(g, dagx.Augmented), box, oblivious.EvalConfig{Samples: 2, Seed: 7})
			// The optimizer's own splitting: on Geant the ECMP guarantee
			// returns ECMP instead, which needs no lies to read back.
			_, rep := ev.Optimize(context.Background(), oblivious.Options{OptIters: 40, AdvIters: 1})
			q, err := wcmp.Apply(rep.Warm.Routing(), 3)
			if err != nil {
				t.Fatal(err)
			}
			syn, err := Synthesize(g, q)
			if err != nil {
				t.Fatal(err)
			}
			if syn.FakeNodes == 0 {
				t.Fatal("no lies to read back")
			}
			rr := readBack(t, q, syn)
			for i, D := range rep.Critical {
				want, got := q.Routing.MaxUtilization(D), rr.MaxUtilization(D)
				if math.Abs(got-want) > 1e-12*want {
					t.Errorf("critical matrix %d: realized MLU %.17g, quantized %.17g", i, got, want)
				}
			}
		})
	}
}

// TestRealizedRoutingRejectsLoop: lies that make two routers forward to each
// other toward a destination are a forwarding loop, not a routing.
func TestRealizedRoutingRejectsLoop(t *testing.T) {
	g, ids := fig1(t)
	db := ospf.NewLSDB(g)
	for _, f := range []ospf.FakeNode{
		{Attached: ids["s1"], MapsTo: ids["v"], Dest: ids["t"], CostUp: 0.1, CostDown: 0.1},
		{Attached: ids["v"], MapsTo: ids["s1"], Dest: ids["t"], CostUp: 0.1, CostDown: 0.1},
	} {
		if err := db.Inject(f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := RealizedRouting(db); err == nil {
		t.Fatal("a forwarding loop read back without an error")
	}
}

// Property: synthesis + verification succeeds for random skewed routings on
// random graphs, and realized ratios match the quantized targets.
func TestPropertySynthesisRealizesQuantizedRatios(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5)
		g := graph.New()
		g.AddNodes(n)
		for i := 0; i < n; i++ {
			g.AddLink(graph.NodeID(i), graph.NodeID((i+1)%n), 1+rng.Float64()*4, 1+float64(rng.Intn(3)))
		}
		g.AddLink(0, graph.NodeID(n/2), 1+rng.Float64()*4, 1+float64(rng.Intn(3)))
		dags := dagx.BuildAll(g, dagx.Augmented)
		r := pdrouting.Uniform(g, dags)
		// Randomly skew a few nodes.
		for trial := 0; trial < 3; trial++ {
			tdst := graph.NodeID(rng.Intn(n))
			u := graph.NodeID(rng.Intn(n))
			if u == tdst {
				continue
			}
			out := dags[tdst].OutEdges(g, u)
			if len(out) < 2 {
				continue
			}
			ratios := make(map[graph.EdgeID]float64, len(out))
			sum := 0.0
			vals := make([]float64, len(out))
			for i := range out {
				vals[i] = 0.1 + rng.Float64()
				sum += vals[i]
			}
			for i, id := range out {
				ratios[id] = vals[i] / sum
			}
			if err := r.SetRatios(tdst, u, ratios); err != nil {
				return false
			}
		}
		q, err := wcmp.Apply(r, 4)
		if err != nil {
			return false
		}
		syn, err := Synthesize(g, q)
		if err != nil {
			return false
		}
		return Verify(g, q, syn) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMessagesDeterministicAndComplete(t *testing.T) {
	g, ids := fig1(t)
	r := skewedRouting(t, g, ids)
	q, err := wcmp.Apply(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := Synthesize(g, q)
	if err != nil {
		t.Fatal(err)
	}
	m1 := syn.Messages()
	m2 := syn.Messages()
	if len(m1) != syn.FakeNodes {
		t.Fatalf("%d messages, want %d", len(m1), syn.FakeNodes)
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatal("Messages not deterministic")
		}
	}
	var buf bytes.Buffer
	if err := syn.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded []Message
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(decoded) != len(m1) {
		t.Fatalf("round-trip lost messages: %d vs %d", len(decoded), len(m1))
	}
}
