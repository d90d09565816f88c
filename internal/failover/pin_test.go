package failover

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/topo"
)

// edgeList spells a graph's directed edges in ID order.
func edgeList(g *graph.Graph) string {
	var sb strings.Builder
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "%d>%d ", e.From, e.To)
	}
	return sb.String()
}

// TestPrecomputeBitPins pins Precompute and PrecomputeNodes on Abilene
// (gravity, margin 2) to the float64 bits — and, for node failures, the
// survivor edge lists — recorded before the three per-scenario solves were
// merged into one. The failover experiment is not in the golden corpus, so
// nothing else holds these numbers still. Six link pins moved by at most 3
// ulps when PerfTop became bound-ordered (an equally optimal vertex reached
// along another pivot path). The pins were re-read again when the simplex
// replaced its product-form eta file with Forrest–Tomlin updates: the
// factors round differently, so OPTDAG normalizations differ in the last
// bits and so do the ratios built on them (at most 5 ulps). They were
// re-read once more when every OPTDAG normalization began from the
// spanning-tree crash basis instead of a carried one: the solves reach
// their optima along other pivot paths. Each pin that moved then is
// annotated with its move — 33 pins, at most 6 ulps; the survivor edge lists
// did not move.
func TestPrecomputeBitPins(t *testing.T) {
	g, err := topo.Load("Abilene")
	if err != nil {
		t.Fatal(err)
	}
	box := demand.MarginBox(demand.Gravity(g, 1), 2)
	cfg := Config{OptIters: 40, AdvIters: 2, Samples: 3, Seed: 1}

	plan, err := Precompute(g, box, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := math.Float64bits(plan.Normal.Perf.Ratio), uint64(0x3fff366f35453ca4); got != want { // −3 ulps
		t.Errorf("NormalPerf bits %#x, want %#x", got, want)
	}
	links := []struct{ perf, ecmp uint64 }{
		{0x3ff93235b3a58cc6, 0x3ffedd80e865ac79}, // ECMPPerf −2 ulps
		{0x3fff2fb88a56fb32, 0x3fff94bd619fa225}, // Perf +1 ulp, ECMPPerf −1 ulp
		{0x3ffba1007f7c5c4a, 0x4000000000000001}, // Perf +6 ulps, ECMPPerf +1 ulp
		{0x3ffb12c932ec48e8, 0x3ffe75bb8d015e7a}, // ECMPPerf +4 ulps
		{0x3ff9dfd3afb71f57, 0x400028282828282a}, // Perf +1 ulp, ECMPPerf +3 ulps
		{0x400019b5055b0bc8, 0x400019b5055b0bc8}, // Perf −1 ulp, ECMPPerf −1 ulp
		{0x3ffcdccb599ca775, 0x3ffefe63d2eb11b5}, // ECMPPerf +1 ulp
		{0x3ff21527d7b7f993, 0x3ff5e50d79435e52}, // Perf +2 ulps
		{0x3ff5cfb5d52755ba, 0x3ffe955555555556}, // Perf +1 ulp
		{0x3ff6d78208feb3ba, 0x400037f4cf09cad8}, // Perf −2 ulps
		{0x3ff3094f8c2bed63, 0x3ff8af8af8af8af8},
		{0x3ff901390d5ccfe3, 0x40003c69b903c69b}, // Perf +2 ulps
		{0x3ffb049a5eb2d62b, 0x3ffeaaaaaaaaaaaa}, // ECMPPerf −1 ulp
		{0x3ffdcb6804f48fcd, 0x4000147ae147ae13}, // Perf +2 ulps, ECMPPerf −1 ulp
		{0x3ff8275ba1c43078, 0x3ffe45306eb3e453}, // ECMPPerf +1 ulp
		{0x3ffe6d4d1bcf9861, 0x4000e028c1978fee}, // Perf +1 ulp, ECMPPerf +3 ulps
	}
	if len(plan.Scenarios) != len(links) {
		t.Fatalf("%d link scenarios, want %d", len(plan.Scenarios), len(links))
	}
	for i, want := range links {
		sc := plan.Scenarios[i]
		if sc.Disconnected {
			t.Errorf("link %d: unexpectedly disconnected", i)
			continue
		}
		if got := math.Float64bits(sc.Solved.Perf.Ratio); got != want.perf {
			t.Errorf("link %d: Perf bits %#x, want %#x", i, got, want.perf)
		}
		if got := math.Float64bits(sc.ECMPPerf); got != want.ecmp {
			t.Errorf("link %d: ECMPPerf bits %#x, want %#x", i, got, want.ecmp)
		}
	}

	nodes := []struct {
		perf  uint64
		edges string
	}{
		{0x3ffb87c10ec34e7e, "1>2 2>1 2>3 3>2 3>4 4>3 4>5 5>4 5>6 6>5 6>7 7>6 7>8 8>7 8>9 9>8 9>10 10>9 10>11 11>10 1>5 5>1 6>3 3>6 11>3 3>11 7>5 5>7 "},   // +2 ulps
		{0x3ff7a9e03ec547d9, "2>3 3>2 3>4 4>3 4>5 5>4 5>6 6>5 6>7 7>6 7>8 8>7 8>9 9>8 9>10 10>9 10>11 11>10 11>0 0>11 6>3 3>6 11>3 3>11 7>5 5>7 "},         // +2 ulps
		{0x3ffdf83b9c8e77aa, "0>1 1>0 3>4 4>3 4>5 5>4 5>6 6>5 6>7 7>6 7>8 8>7 8>9 9>8 9>10 10>9 10>11 11>10 11>0 0>11 1>5 5>1 6>3 3>6 11>3 3>11 7>5 5>7 "}, // −1 ulp
		{0x3ff59ff8d050e7a9, "0>1 1>0 1>2 2>1 4>5 5>4 5>6 6>5 6>7 7>6 7>8 8>7 8>9 9>8 9>10 10>9 10>11 11>10 11>0 0>11 1>5 5>1 7>5 5>7 "},                   // +2 ulps
		{0x3ffac97ef5c6448f, "0>1 1>0 1>2 2>1 2>3 3>2 5>6 6>5 6>7 7>6 7>8 8>7 8>9 9>8 9>10 10>9 10>11 11>10 11>0 0>11 1>5 5>1 6>3 3>6 11>3 3>11 7>5 5>7 "}, // +2 ulps
		{0x3ff7ce08acbbe093, "0>1 1>0 1>2 2>1 2>3 3>2 3>4 4>3 6>7 7>6 7>8 8>7 8>9 9>8 9>10 10>9 10>11 11>10 11>0 0>11 6>3 3>6 11>3 3>11 "},                 // +3 ulps
		{0x3ffce89807853893, "0>1 1>0 1>2 2>1 2>3 3>2 3>4 4>3 4>5 5>4 7>8 8>7 8>9 9>8 9>10 10>9 10>11 11>10 11>0 0>11 1>5 5>1 11>3 3>11 7>5 5>7 "},         // −4 ulps
		{0x3ff2babe13be131c, "0>1 1>0 1>2 2>1 2>3 3>2 3>4 4>3 4>5 5>4 5>6 6>5 8>9 9>8 9>10 10>9 10>11 11>10 11>0 0>11 1>5 5>1 6>3 3>6 11>3 3>11 "},         // +1 ulp
		{0x3ff82db3be513247, "0>1 1>0 1>2 2>1 2>3 3>2 3>4 4>3 4>5 5>4 5>6 6>5 6>7 7>6 9>10 10>9 10>11 11>10 11>0 0>11 1>5 5>1 6>3 3>6 11>3 3>11 7>5 5>7 "}, // −5 ulps
		{0x3ff73b688634b9c1, "0>1 1>0 1>2 2>1 2>3 3>2 3>4 4>3 4>5 5>4 5>6 6>5 6>7 7>6 7>8 8>7 10>11 11>10 11>0 0>11 1>5 5>1 6>3 3>6 11>3 3>11 7>5 5>7 "},
		{0x3ff73d8fd85f490b, "0>1 1>0 1>2 2>1 2>3 3>2 3>4 4>3 4>5 5>4 5>6 6>5 6>7 7>6 7>8 8>7 8>9 9>8 11>0 0>11 1>5 5>1 6>3 3>6 11>3 3>11 7>5 5>7 "}, // +2 ulps
		{0x3ff31f2fb0c5e8f2, "0>1 1>0 1>2 2>1 2>3 3>2 3>4 4>3 4>5 5>4 5>6 6>5 6>7 7>6 7>8 8>7 8>9 9>8 9>10 10>9 1>5 5>1 6>3 3>6 7>5 5>7 "},           // +2 ulps
	}
	got, err := PrecomputeNodes(g, box, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(nodes) {
		t.Fatalf("%d node scenarios, want %d", len(got), len(nodes))
	}
	for v, want := range nodes {
		sc := got[v]
		if sc.Disconnected || sc.Solved == nil {
			t.Errorf("node %d: unexpectedly disconnected", v)
			continue
		}
		if b := math.Float64bits(sc.Solved.Perf.Ratio); b != want.perf {
			t.Errorf("node %d: Perf bits %#x, want %#x", v, b, want.perf)
		}
		if e := edgeList(sc.Solved.Routing.G); e != want.edges {
			t.Errorf("node %d: survivor edges\n got %s\nwant %s", v, e, want.edges)
		}
	}
}
