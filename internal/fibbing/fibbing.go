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
	db := ospf.NewLSDB(g)
	out := &Synthesis{LSDB: db}

	// c < wmin/n makes every fake path shorter than any real alternative.
	wmin := math.Inf(1)
	for _, e := range g.Edges() {
		if e.Weight < wmin {
			wmin = e.Weight
		}
	}
	n := g.NumNodes()
	c := wmin / (2 * float64(n+1))

	for t := range q.Routing.DAGs {
		dest := graph.NodeID(t)
		// One shortest-path tree serves this destination's whole synthesis
		// (target FIB derivation and the needs-lies check); when the DAG
		// carries its construction-time distance field no Dijkstra runs at
		// all.
		tree := q.Routing.DAGs[t].Tree(g)
		targets, err := targetFIBs(g, q, dest, tree)
		if err != nil {
			return nil, err
		}
		if !needsLies(g, dest, targets, tree) {
			continue
		}
		out.LiedDestinations = append(out.LiedDestinations, dest)
		// Potential: position from the destination in reverse topological
		// order of the target DAG (t gets 0).
		d := q.Routing.DAGs[t]
		L := make([]int, n)
		rank := 1
		for i := len(d.Order) - 1; i >= 0; i-- {
			u := d.Order[i]
			if u == dest {
				L[u] = 0
				continue
			}
			L[u] = rank
			rank++
		}
		for u := 0; u < n; u++ {
			if graph.NodeID(u) == dest || targets[u] == nil {
				continue
			}
			total := c * float64(L[u])
			for nh, mult := range targets[u] {
				for k := 0; k < mult; k++ {
					f := ospf.FakeNode{
						Name:     fmt.Sprintf("fake-t%d-u%d-v%d-%d", t, u, nh, k),
						Attached: graph.NodeID(u),
						MapsTo:   nh,
						Dest:     dest,
						CostUp:   total / 2,
						CostDown: total / 2,
					}
					if err := db.Inject(f); err != nil {
						return nil, err
					}
					out.FakeNodes++
				}
			}
		}
	}
	return out, nil
}

// targetFIBs derives, per router, the desired next-hop multiplicity map
// toward dest. Routers whose quantized multiplicities are all zero (no
// traffic shaped through them) fall back to their shortest-path next-hops
// so that they still forward deterministically. The caller provides the
// destination's shortest-path tree so it is computed (at most) once per
// destination and shared across the synthesis passes.
func targetFIBs(g *graph.Graph, q *wcmp.QuantizedRouting, dest graph.NodeID, tree *spf.Tree) ([]ospf.FIB, error) {
	n := g.NumNodes()
	d := q.Routing.DAGs[dest]
	fibs := make([]ospf.FIB, n)
	var hopBuf []graph.EdgeID
	for u := 0; u < n; u++ {
		if graph.NodeID(u) == dest {
			continue
		}
		fib := make(ospf.FIB)
		for _, id := range d.OutEdges(g, graph.NodeID(u)) {
			if m := q.Mult[dest][id]; m > 0 {
				fib[g.Edge(id).To] += m
			}
		}
		if len(fib) == 0 {
			hopBuf = tree.AppendNextHops(hopBuf[:0], g, graph.NodeID(u))
			for _, id := range hopBuf {
				fib[g.Edge(id).To]++
			}
		}
		if len(fib) == 0 {
			if tree.Dist[u] == spf.Inf {
				continue // genuinely unreachable
			}
			return nil, fmt.Errorf("fibbing: router %d has no forwarding entry toward %d", u, dest)
		}
		fibs[u] = fib
	}
	return fibs, nil
}

// needsLies reports whether the target differs from plain shortest-path
// ECMP (equal multiplicity 1 on every SP next-hop), reusing the caller's
// shortest-path tree for the destination.
func needsLies(g *graph.Graph, dest graph.NodeID, targets []ospf.FIB, tree *spf.Tree) bool {
	var hopBuf []graph.EdgeID
	for u := 0; u < g.NumNodes(); u++ {
		if graph.NodeID(u) == dest || targets[u] == nil {
			continue
		}
		hopBuf = tree.AppendNextHops(hopBuf[:0], g, graph.NodeID(u))
		if len(hopBuf) != len(targets[u]) {
			return true
		}
		for _, id := range hopBuf {
			if targets[u][g.Edge(id).To] != 1 {
				return true
			}
		}
	}
	return false
}

// Realize is the one way a routing becomes lies: it quantizes r to at most
// extraPerInterface virtual next-hops per interface (wcmp.Apply, per [18]),
// synthesizes the fake-node LSAs over g, and verifies that SPF over the
// synthesized LSDB reproduces the quantized forwarding exactly. When ctx
// carries an obs.Tracer the quantization and the synthesis+verification each
// record a span; otherwise no tracing work is done.
func Realize(ctx context.Context, g *graph.Graph, r *pdrouting.Routing, extraPerInterface int) (*wcmp.QuantizedRouting, *Synthesis, error) {
	_, span := obs.StartSpan(ctx, "fibbing.quantize")
	q, err := wcmp.Apply(r, extraPerInterface)
	span.End()
	if err != nil {
		return nil, nil, err
	}
	_, span = obs.StartSpan(ctx, "fibbing.synthesize")
	defer span.End()
	syn, err := Synthesize(g, q)
	if err != nil {
		return nil, nil, err
	}
	if err := Verify(g, q, syn); err != nil {
		return nil, nil, fmt.Errorf("fibbing: lie verification failed: %w", err)
	}
	span.Attr("fake_nodes", syn.FakeNodes)
	return q, syn, nil
}

// Verify checks that running SPF over the synthesized LSDB reproduces the
// quantized routing exactly: every router's realized FIB multiset equals
// the target derived from q. It returns the first discrepancy found.
func Verify(g *graph.Graph, q *wcmp.QuantizedRouting, syn *Synthesis) error {
	for t := range q.Routing.DAGs {
		dest := graph.NodeID(t)
		targets, err := targetFIBs(g, q, dest, q.Routing.DAGs[t].Tree(g))
		if err != nil {
			return err
		}
		realized := syn.LSDB.SPF(dest)
		for u := 0; u < g.NumNodes(); u++ {
			if graph.NodeID(u) == dest {
				continue
			}
			want := targets[u]
			got := realized[u]
			if want == nil && got == nil {
				continue
			}
			if (want == nil) != (got == nil) {
				return fmt.Errorf("fibbing: router %d toward %d: fib presence mismatch (want %v, got %v)", u, dest, want, got)
			}
			if len(want) != len(got) {
				return fmt.Errorf("fibbing: router %d toward %d: %d next-hops realized, want %d", u, dest, len(got), len(want))
			}
			for nh, m := range want {
				if got[nh] != m {
					return fmt.Errorf("fibbing: router %d toward %d: next-hop %d multiplicity %d, want %d", u, dest, nh, got[nh], m)
				}
			}
		}
	}
	return nil
}

// RealizedRouting reads back the PD routing that SPF over db installs. Per
// destination, the edges the routers' FIBs forward on form the DAG (a
// forwarding loop is an error) and each router's splitting ratios are its
// FIB ratios. A FIB names next-hop routers, so the edge toward next hop v is
// g.FindEdge(u, v), as it is for a fake node's MapsTo.
func RealizedRouting(db *ospf.LSDB) (*pdrouting.Routing, error) {
	g := db.G
	r := pdrouting.NewZero(g, make([]*dagx.DAG, g.NumNodes()))
	for t := range r.DAGs {
		dest := graph.NodeID(t)
		fibs := db.SPF(dest)
		member := make([]bool, g.NumEdges())
		for u, fib := range fibs {
			for v := range fib {
				id, _ := g.FindEdge(graph.NodeID(u), v)
				member[id] = true
			}
		}
		d, err := dagx.FromEdges(g, dest, member)
		if err != nil {
			return nil, fmt.Errorf("fibbing: forwarding loop: %w", err)
		}
		r.DAGs[t] = d
		for u, fib := range fibs {
			if fib == nil {
				continue
			}
			ratios := make(map[graph.EdgeID]float64, len(fib))
			for v, x := range fib.Ratios() {
				id, _ := g.FindEdge(graph.NodeID(u), v)
				ratios[id] = x
			}
			if err := r.SetRatios(dest, graph.NodeID(u), ratios); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}
