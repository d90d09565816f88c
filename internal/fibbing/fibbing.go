// Package fibbing synthesizes the "lies" — fake nodes and links injected
// into the OSPF link-state database — that make unmodified routers realize
// COYOTE's per-destination DAGs and (quantized) splitting ratios, following
// the Fibbing technique ([8], [9]) described in §V-D of the paper.
//
// The synthesizer uses the per-destination potential construction: every
// router u that needs a non-default forwarding entry toward destination t
// receives one fake node per desired FIB slot, all advertising t at total
// cost c·L(u), where L is a potential strictly decreasing along the target
// DAG and c is small enough that fake paths always beat real ones. The
// equal-cost fake adjacencies then tie, ECMP splits across them with the
// desired multiplicities, and data-plane forwarding follows the DAG (so it
// is loop-free by construction). Destinations whose target equals plain
// shortest-path ECMP need no lies at all.
package fibbing

import (
	"context"
	"fmt"
	"math"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/ospf"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/spf"
	"github.com/coyote-te/coyote/internal/wcmp"
)

// Synthesis is the output of Synthesize: an augmented LSDB and bookkeeping.
type Synthesis struct {
	LSDB *ospf.LSDB
	// LiedDestinations lists destinations that required lies.
	LiedDestinations []graph.NodeID
	// FakeNodes is the total number of injected fake nodes.
	FakeNodes int
}

// Synthesize computes the lie set realizing the quantized routing q over
// graph g. The input graph's weights are the real OSPF weights routers
// already use.
func Synthesize(g *graph.Graph, q *wcmp.QuantizedRouting) (*Synthesis, error) {
	z := newRealizer(g, q)
	for t := range q.Routing.DAGs {
		dest := graph.NodeID(t)
		if err := z.targets(dest); err != nil {
			return nil, err
		}
		if err := z.synthesize(dest); err != nil {
			return nil, err
		}
	}
	return z.syn, nil
}

// Verify checks that running SPF over the synthesized LSDB reproduces the
// quantized routing exactly: every router's realized FIB multiset equals
// the target derived from q. It returns the first discrepancy found.
func Verify(g *graph.Graph, q *wcmp.QuantizedRouting, syn *Synthesis) error {
	z := newRealizer(g, q)
	for t := range q.Routing.DAGs {
		dest := graph.NodeID(t)
		if err := z.targets(dest); err != nil {
			return err
		}
		if err := z.verify(syn.LSDB, dest); err != nil {
			return err
		}
	}
	return nil
}

// Realize is the one way a routing becomes lies: it quantizes r to at most
// extraPerInterface virtual next-hops per interface (wcmp.Apply, per [18]),
// synthesizes the fake-node LSAs over g, and verifies that SPF over the
// synthesized LSDB reproduces the quantized forwarding exactly. Synthesis
// and verification share one workspace and run destination by destination,
// so each destination's target FIBs are derived once. When ctx carries an
// obs.Tracer the quantization and the synthesis+verification each record a
// span; otherwise no tracing work is done.
func Realize(ctx context.Context, g *graph.Graph, r *pdrouting.Routing, extraPerInterface int) (*wcmp.QuantizedRouting, *Synthesis, error) {
	_, span := obs.StartSpan(ctx, "fibbing.quantize")
	q, err := wcmp.Apply(r, extraPerInterface)
	span.End()
	if err != nil {
		return nil, nil, err
	}
	_, span = obs.StartSpan(ctx, "fibbing.synthesize")
	defer span.End()
	z := newRealizer(g, q)
	for t := range q.Routing.DAGs {
		dest := graph.NodeID(t)
		if err := z.targets(dest); err != nil {
			return nil, nil, err
		}
		if err := z.synthesize(dest); err != nil {
			return nil, nil, err
		}
		// Lies are scoped to their destination, so dest's fakes are all
		// the LSDB holds that SPF toward dest can see.
		if err := z.verify(z.syn.LSDB, dest); err != nil {
			return nil, nil, fmt.Errorf("fibbing: lie verification failed: %w", err)
		}
	}
	span.Attr("fake_nodes", z.syn.FakeNodes)
	return q, z.syn, nil
}

// realizer is the workspace of one realization of q over g: the flat
// buffers that Synthesize, Verify and Realize reuse from one destination to
// the next. It is not safe for concurrent use.
type realizer struct {
	g *graph.Graph
	q *wcmp.QuantizedRouting
	// c < wmin/n makes every fake path shorter than any real alternative.
	c   float64
	syn *Synthesis

	// tgt[tgtStart[u]:tgtStart[u+1]] is router u's target FIB toward the
	// current destination.
	tgtStart []int32
	tgt      []ospf.Hop
	tree     *spf.Tree      // the current destination's shortest-path tree
	hops     []graph.EdgeID // next-hop scratch
	rank     []int          // the potential L of the current destination

	spf ospf.Workspace
}

func newRealizer(g *graph.Graph, q *wcmp.QuantizedRouting) *realizer {
	wmin := math.Inf(1)
	for _, e := range g.Edges() {
		if e.Weight < wmin {
			wmin = e.Weight
		}
	}
	n := g.NumNodes()
	return &realizer{
		g:        g,
		q:        q,
		c:        wmin / (2 * float64(n+1)),
		syn:      &Synthesis{LSDB: ospf.NewLSDB(g)},
		tgtStart: make([]int32, n+1),
		rank:     make([]int, n),
	}
}

// target is router u's target FIB toward the current destination.
func (z *realizer) target(u int) []ospf.Hop {
	return z.tgt[z.tgtStart[u]:z.tgtStart[u+1]]
}

// targets derives, per router, the desired FIB toward dest: the quantized
// multiplicities of its DAG out-edges, merged per next hop in DAG out-edge
// order. Routers whose quantized multiplicities are all zero (no traffic
// shaped through them) fall back to their shortest-path next-hops so that
// they still forward deterministically. One shortest-path tree serves the
// destination's whole synthesis and verification; when the DAG carries its
// construction-time distance field no Dijkstra runs at all.
func (z *realizer) targets(dest graph.NodeID) error {
	g := z.g
	d := z.q.Routing.DAGs[dest]
	mult := z.q.Mult[dest]
	z.tree = d.Tree(g)
	z.tgt = z.tgt[:0]
	for u := 0; u < g.NumNodes(); u++ {
		lo := len(z.tgt)
		z.tgtStart[u] = int32(lo)
		if graph.NodeID(u) == dest {
			continue
		}
		for _, id := range d.OutEdges(g, graph.NodeID(u)) {
			if m := mult[id]; m > 0 {
				z.tgt = ospf.AddHop(z.tgt, lo, g.Edge(id).To, m)
			}
		}
		if len(z.tgt) == lo {
			z.hops = z.tree.AppendNextHops(z.hops[:0], g, graph.NodeID(u))
			for _, id := range z.hops {
				z.tgt = ospf.AddHop(z.tgt, lo, g.Edge(id).To, 1)
			}
		}
		if len(z.tgt) == lo && z.tree.Dist[u] != spf.Inf {
			return fmt.Errorf("fibbing: router %d has no forwarding entry toward %d", u, dest)
		}
	}
	z.tgtStart[g.NumNodes()] = int32(len(z.tgt))
	return nil
}

// needsLies reports whether the current target differs from plain
// shortest-path ECMP toward dest (equal multiplicity 1 on every SP
// next-hop).
func (z *realizer) needsLies(dest graph.NodeID) bool {
	g := z.g
	for u := 0; u < g.NumNodes(); u++ {
		want := z.target(u)
		if len(want) == 0 {
			continue
		}
		z.hops = z.tree.AppendNextHops(z.hops[:0], g, graph.NodeID(u))
		if len(z.hops) != len(want) {
			return true
		}
		for _, id := range z.hops {
			if multOf(want, g.Edge(id).To) != 1 {
				return true
			}
		}
	}
	return false
}

// synthesize injects dest's lies when its target needs any: per router, one
// fake node per target FIB slot, in (router, next hop, replica) order, all
// at total cost c·L(u).
func (z *realizer) synthesize(dest graph.NodeID) error {
	if !z.needsLies(dest) {
		return nil
	}
	g, db := z.g, z.syn.LSDB
	z.syn.LiedDestinations = append(z.syn.LiedDestinations, dest)
	// Potential: position from the destination in reverse topological
	// order of the target DAG (t gets 0).
	d := z.q.Routing.DAGs[dest]
	L := z.rank
	clear(L)
	rank := 1
	for i := len(d.Order) - 1; i >= 0; i-- {
		if u := d.Order[i]; u != dest {
			L[u] = rank
			rank++
		}
	}
	slots := 0
	for _, h := range z.tgt {
		slots += h.Mult
	}
	db.Fakes[dest] = make([]ospf.FakeNode, 0, slots)
	for u := 0; u < g.NumNodes(); u++ {
		total := z.c * float64(L[u])
		for _, h := range z.target(u) {
			for k := 0; k < h.Mult; k++ {
				f := ospf.FakeNode{
					Attached: graph.NodeID(u),
					MapsTo:   h.To,
					Dest:     dest,
					Replica:  int32(k),
					CostUp:   total / 2,
					CostDown: total / 2,
				}
				if err := db.Inject(f); err != nil {
					return err
				}
				z.syn.FakeNodes++
			}
		}
	}
	return nil
}

// verify runs SPF toward dest over db and compares every router's realized
// FIB with its target: presence, next-hop count and each multiplicity.
func (z *realizer) verify(db *ospf.LSDB, dest graph.NodeID) error {
	z.spf.Run(db, dest)
	for u := 0; u < z.g.NumNodes(); u++ {
		want, got := z.target(u), z.spf.FIB(graph.NodeID(u))
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if (len(want) == 0) != (len(got) == 0) {
			return fmt.Errorf("fibbing: router %d toward %d: fib presence mismatch (want %v, got %v)", u, dest, want, got)
		}
		if len(want) != len(got) {
			return fmt.Errorf("fibbing: router %d toward %d: %d next-hops realized, want %d", u, dest, len(got), len(want))
		}
		for _, h := range want {
			if m := multOf(got, h.To); m != h.Mult {
				return fmt.Errorf("fibbing: router %d toward %d: next-hop %d multiplicity %d, want %d", u, dest, h.To, m, h.Mult)
			}
		}
	}
	return nil
}

// multOf is next hop to's multiplicity in fib, 0 when fib has no entry.
func multOf(fib []ospf.Hop, to graph.NodeID) int {
	for _, h := range fib {
		if h.To == to {
			return h.Mult
		}
	}
	return 0
}

// RealizedRouting reads back the PD routing that SPF over db installs. Per
// destination, the edges the routers' FIBs forward on form the DAG (a
// forwarding loop is an error) and each router's splitting ratios are its
// FIB ratios. A FIB names next-hop routers, so the edge toward next hop v is
// g.FindEdge(u, v), as it is for a fake node's MapsTo.
func RealizedRouting(db *ospf.LSDB) (*pdrouting.Routing, error) {
	g := db.G
	r := pdrouting.NewZero(g, make([]*dagx.DAG, g.NumNodes()))
	var ws ospf.Workspace
	member := make([]bool, g.NumEdges())
	for t := range r.DAGs {
		dest := graph.NodeID(t)
		ws.Run(db, dest)
		clear(member)
		for u := 0; u < g.NumNodes(); u++ {
			fib := ws.FIB(graph.NodeID(u))
			total := 0
			for _, h := range fib {
				total += h.Mult
			}
			for _, h := range fib {
				id, _ := g.FindEdge(graph.NodeID(u), h.To)
				member[id] = true
				r.Phi[t][id] = float64(h.Mult) / float64(total)
			}
		}
		d, err := dagx.FromEdges(g, dest, member)
		if err != nil {
			return nil, fmt.Errorf("fibbing: forwarding loop: %w", err)
		}
		r.DAGs[t] = d
	}
	return r, nil
}
