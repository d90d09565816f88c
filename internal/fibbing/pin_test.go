package fibbing

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/topo"
	"github.com/coyote-te/coyote/internal/wcmp"
)

// pinRouting is a fixed skewed routing over g's augmented DAGs: router u
// splits its traffic toward t over its i-th DAG out-edge in proportion to
// 1 + (t + 3u + 5i) mod 4, so quantization needs replicas and most
// destinations need lies.
func pinRouting(g *graph.Graph) *pdrouting.Routing {
	return skewedOver(g, func(t, u, i int) int { return 1 + (t+3*u+5*i)%4 })
}

// skewedOver is the routing over g's augmented DAGs in which router u splits
// its traffic toward t over its i-th DAG out-edge in proportion to
// weight(t, u, i), called once per (t, u, i) in that loop order.
func skewedOver(g *graph.Graph, weight func(t, u, i int) int) *pdrouting.Routing {
	dags := dagx.BuildAll(g, dagx.Augmented)
	r := pdrouting.NewZero(g, dags)
	for t, d := range dags {
		for u := 0; u < g.NumNodes(); u++ {
			out := d.OutEdges(g, graph.NodeID(u))
			sum := 0.0
			for i, id := range out {
				r.Phi[t][id] = float64(weight(t, u, i))
				sum += r.Phi[t][id]
			}
			for _, id := range out {
				r.Phi[t][id] /= sum
			}
		}
	}
	return r
}

// pinGraph loads a corpus topology, or the Barabási–Albert graph of the
// scale benchmark (N 42, M 2, seed 2) for "ba42".
func pinGraph(tb testing.TB, name string) *graph.Graph {
	tb.Helper()
	if name == "ba42" {
		g, err := scen.Generate("ba", scen.Params{N: 42, M: 2, Seed: 2})
		if err != nil {
			tb.Fatal(err)
		}
		return g
	}
	return topo.MustLoad(name)
}

// multDigest is the sha256 (first 16 hex digits) of q.Mult, row by row, as
// little-endian int64s.
func multDigest(q *wcmp.QuantizedRouting) string {
	h := sha256.New()
	var b [8]byte
	for _, row := range q.Mult {
		for _, m := range row {
			binary.LittleEndian.PutUint64(b[:], uint64(m))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// messagesDigest is the sha256 (first 16 hex digits) of syn.WriteJSON.
func messagesDigest(t *testing.T, syn *Synthesis) string {
	t.Helper()
	var buf bytes.Buffer
	if err := syn.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])[:16]
}

// TestRealizePins pins what Realize (and the spelled-out Apply → Synthesize
// → Verify sequence) produces for a fixed routing on four topologies: the
// LSA stream byte for byte, the lie counts and the multiplicities. Any
// rewrite of the lie pipeline must leave every value here unchanged.
func TestRealizePins(t *testing.T) {
	pins := []struct {
		name                 string
		messages, mult       string
		fakes, virtual, lied int
	}{
		{"Abilene", "83103cd842447acf", "34938f0b77568636", 361, 169, 12},
		{"NSF", "ea48166ad58bc5b4", "27e122b9a5dec46a", 611, 317, 14},
		{"Geant", "322a3e94f610d4e2", "df9f52ffc4ddca61", 1657, 865, 22},
		{"ba42", "7ecb20f1ea4d1ba9", "25d8a50dd480dc0e", 7914, 4512, 42},
	}
	for _, p := range pins {
		t.Run(p.name, func(t *testing.T) {
			g := pinGraph(t, p.name)
			r := pinRouting(g)
			q, syn, err := Realize(context.Background(), g, r, 3)
			if err != nil {
				t.Fatal(err)
			}
			msg, mult := messagesDigest(t, syn), multDigest(q)
			if msg != p.messages || mult != p.mult || syn.FakeNodes != p.fakes ||
				q.VirtualLinks != p.virtual || len(syn.LiedDestinations) != p.lied {
				t.Fatalf("messages %s mult %s fakes %d virtual %d lied %d; want %s %s %d %d %d",
					msg, mult, syn.FakeNodes, q.VirtualLinks, len(syn.LiedDestinations),
					p.messages, p.mult, p.fakes, p.virtual, p.lied)
			}
			q2, err := wcmp.Apply(r, 3)
			if err != nil {
				t.Fatal(err)
			}
			syn2, err := Synthesize(g, q2)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(g, q2, syn2); err != nil {
				t.Fatal(err)
			}
			if got := messagesDigest(t, syn2); got != msg || multDigest(q2) != mult {
				t.Fatalf("Apply → Synthesize gave messages %s mult %s, Realize %s %s", got, multDigest(q2), msg, mult)
			}
		})
	}
}

// realizePin realizes the fixed routing over g with 3 virtual next-hops per
// interface.
func realizePin(tb testing.TB, g *graph.Graph) *Synthesis {
	tb.Helper()
	_, syn, err := Realize(context.Background(), g, pinRouting(g), 3)
	if err != nil {
		tb.Fatal(err)
	}
	return syn
}

// nsfFailLies is the lie set of the fixed routing on NSF and on NSF without
// its first link: the two ends of the pinned fail diff.
func nsfFailLies(tb testing.TB) (normal, failed *Synthesis) {
	tb.Helper()
	g := pinGraph(tb, "NSF")
	return realizePin(tb, g), realizePin(tb, g.WithoutLink(g.Links()[0]))
}

// TestRealizeFailRecoverChurnPin pins the LSA churn of one fail → recover
// pair on NSF: the fixed routing over the intact graph, over the graph
// without its first link, and over the intact graph again.
func TestRealizeFailRecoverChurnPin(t *testing.T) {
	const wantFail, wantRecover = 442, 442
	normal, failed := nsfFailLies(t)
	recovered := realizePin(t, pinGraph(t, "NSF"))
	fail, recover := Diff(normal, failed), Diff(failed, recovered)
	if err := VerifyDiff(normal, failed, fail); err != nil {
		t.Fatal(err)
	}
	if err := VerifyDiff(failed, recovered, recover); err != nil {
		t.Fatal(err)
	}
	if fail.Churn() != wantFail || recover.Churn() != wantRecover {
		t.Fatalf("churn fail %d recover %d, want %d %d", fail.Churn(), recover.Churn(), wantFail, wantRecover)
	}
	if d := Diff(normal, recovered); d.Churn() != 0 {
		t.Fatalf("recovery left churn %d against the intact lie set", d.Churn())
	}
}

// TestDiffAllocs caps the allocations of Diff + VerifyDiff on the NSF fail
// diff (442 LSAs): each call copies each lie set once, and nothing is
// allocated per lie.
func TestDiffAllocs(t *testing.T) {
	const maxAllocs = 64
	normal, failed := nsfFailLies(t)
	allocs := testing.AllocsPerRun(20, func() {
		if err := VerifyDiff(normal, failed, Diff(normal, failed)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs {
		t.Fatalf("Diff + VerifyDiff made %.0f allocations, want ≤ %d", allocs, maxAllocs)
	}
}

// TestSynthesizeIsDeterministic: two syntheses of the same quantized
// routing inject the same fakes in the same order, so their LSDBs are deeply
// equal (each destination's fakes in router, DAG out-edge, replica order).
func TestSynthesizeIsDeterministic(t *testing.T) {
	g := pinGraph(t, "Geant")
	q, err := wcmp.Apply(pinRouting(g), 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Synthesize(g, q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.LSDB, b.LSDB) {
		t.Fatal("two syntheses of one quantized routing gave different LSDBs")
	}
}

// BenchmarkRealize times one Realize(…, 3) of the fixed routing on Geant
// and on the scale benchmark's BA graph, then Diff and VerifyDiff of the NSF
// fail diff; run it with -benchmem.
func BenchmarkRealize(b *testing.B) {
	for _, name := range []string{"Geant", "ba42"} {
		b.Run(name, func(b *testing.B) {
			g := pinGraph(b, name)
			r := pinRouting(g)
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := Realize(context.Background(), g, r, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	normal, failed := nsfFailLies(b)
	d := Diff(normal, failed)
	b.Run("Diff", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			Diff(normal, failed)
		}
	})
	b.Run("VerifyDiff", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := VerifyDiff(normal, failed, d); err != nil {
				b.Fatal(err)
			}
		}
	})
}
