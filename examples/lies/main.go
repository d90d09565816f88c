// Lies: reproduce Fig. 1d of the paper — realize a 2/3 : 1/3 split at s1
// by injecting a single fake node into the OSPF link-state database, then
// verify that SPF over the augmented database installs exactly the desired
// FIB.
package main

import (
	"fmt"
	"log"
	"maps"
	"slices"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/fibbing"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/wcmp"
)

func main() {
	g := graph.New()
	s1 := g.AddNode("s1")
	s2 := g.AddNode("s2")
	v := g.AddNode("v")
	t := g.AddNode("t")
	g.AddLink(s1, s2, 1, 1)
	g.AddLink(s1, v, 1, 1)
	g.AddLink(s2, v, 1, 1)
	g.AddLink(s2, t, 1, 1)
	g.AddLink(v, t, 1, 1)

	// COYOTE wants s1 to send 2/3 of its t-traffic via s2 and 1/3 via v
	// (Fig. 1c/1d).
	dags := dagx.BuildAll(g, dagx.Augmented)
	r := pdrouting.Uniform(g, dags)
	es1s2, _ := g.FindEdge(s1, s2)
	es1v, _ := g.FindEdge(s1, v)
	if err := r.SetRatios(t, s1, map[graph.EdgeID]float64{es1s2: 2.0 / 3, es1v: 1.0 / 3}); err != nil {
		log.Fatal(err)
	}

	// Quantize to ECMP multiplicities and synthesize the lies.
	q, err := wcmp.Apply(r, 3)
	if err != nil {
		log.Fatal(err)
	}
	syn, err := fibbing.Synthesize(g, q)
	if err != nil {
		log.Fatal(err)
	}
	if err := fibbing.Verify(g, q, syn); err != nil {
		log.Fatal("verification failed: ", err)
	}
	fmt.Printf("synthesized %d fake nodes for %d destination(s)\n",
		syn.FakeNodes, len(syn.LiedDestinations))

	// Show what s1's FIB toward t looks like after the lies, in next-hop
	// order.
	fib := syn.LSDB.SPF(t)[s1]
	ratios := fib.Ratios()
	fmt.Println("s1 FIB toward t (next-hop: ECMP multiplicity → realized split):")
	for _, nh := range slices.Sorted(maps.Keys(fib)) {
		fmt.Printf("  via %-3s multiplicity %d → %.3f\n", g.Name(nh), fib[nh], ratios[nh])
	}
}
