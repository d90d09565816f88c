package failover

import (
	"testing"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/scen"
)

// ringWithSpur: a 4-ring (survives any single failure) plus a spur node
// hanging off one bridge link (whose failure disconnects it).
func ringWithSpur() *graph.Graph {
	g := graph.New()
	g.AddNodes(4)
	for i := 0; i < 4; i++ {
		g.AddLink(graph.NodeID(i), graph.NodeID((i+1)%4), 1, 1)
	}
	spur := g.AddNode("spur")
	g.AddLink(graph.NodeID(0), spur, 1, 1)
	return g
}

func smallBox(g *graph.Graph) *demand.Box {
	base := demand.NewMatrix(g.NumNodes())
	for s := 0; s < g.NumNodes(); s++ {
		for t := 0; t < g.NumNodes(); t++ {
			if s != t {
				base.Set(graph.NodeID(s), graph.NodeID(t), 0.2)
			}
		}
	}
	return demand.MarginBox(base, 2)
}

// TestPrecomputePlan precomputes the single-link failover plan a session
// holds: one scenario per physical link, in g.Links() order.
func TestPrecomputePlan(t *testing.T) {
	g := ringWithSpur()
	suite := scen.SingleLinkFailures(g)
	scenarios, err := PrecomputeGroups(g, smallBox(g), suite, Config{OptIters: 80, AdvIters: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != len(g.Links()) {
		t.Fatalf("%d scenarios, want %d", len(scenarios), len(g.Links()))
	}
	disconnecting := 0
	for i, sc := range scenarios {
		if sc.Set.Name != suite[i].Name || len(sc.Set.Links) != 1 || sc.Set.Links[0] != g.Links()[i] {
			t.Fatalf("scenario %d is %+v, want link %d (%s)", i, sc.Set, g.Links()[i], suite[i].Name)
		}
		if sc.Disconnected {
			disconnecting++
			if sc.Solved != nil {
				t.Fatal("disconnected scenario must not carry a routing")
			}
			continue
		}
		if sc.Solved == nil {
			t.Fatalf("scenario %s missing routing", sc.Set.Name)
		}
		if err := sc.Solved.Routing.Validate(); err != nil {
			t.Fatalf("scenario %s routing invalid: %v", sc.Set.Name, err)
		}
		if sc.Solved.Perf.Ratio > sc.ECMPPerf+1e-9 {
			t.Fatalf("scenario %s: COYOTE %g worse than ECMP %g", sc.Set.Name, sc.Solved.Perf.Ratio, sc.ECMPPerf)
		}
		if sc.Solved.Ev.G.NumEdges() != g.NumEdges()-2 {
			t.Fatalf("scenario %s survivor has %d edges", sc.Set.Name, sc.Solved.Ev.G.NumEdges())
		}
	}
	// Exactly one bridge: the spur link.
	if disconnecting != 1 {
		t.Fatalf("%d disconnecting failures, want 1", disconnecting)
	}
}

func TestPrecomputeGroups(t *testing.T) {
	g := ringWithSpur()
	links := g.Links() // 4 ring links then the spur bridge
	groups := []scen.FailureSet{
		{Name: "ring", Links: []graph.EdgeID{links[0]}},               // single ring link: survivable
		{Name: "opposite", Links: []graph.EdgeID{links[0], links[2]}}, // two opposite ring links: partitions the ring
		{Name: "spur", Links: []graph.EdgeID{links[4]}},               // the spur bridge: disconnects
		{Name: "none"}, // empty group: the normal topology
	}
	scenarios, err := PrecomputeGroups(g, smallBox(g), groups, Config{OptIters: 60, AdvIters: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != len(groups) {
		t.Fatalf("%d scenarios, want %d", len(scenarios), len(groups))
	}
	if scenarios[0].Disconnected || scenarios[0].Solved == nil {
		t.Fatal("single ring-link group must be survivable")
	}
	if scenarios[0].Solved.Ev.G.NumEdges() != g.NumEdges()-2 {
		t.Fatalf("survivor has %d edges", scenarios[0].Solved.Ev.G.NumEdges())
	}
	if !scenarios[1].Disconnected {
		t.Fatal("opposite ring links must partition the network")
	}
	if !scenarios[2].Disconnected {
		t.Fatal("spur bridge group must disconnect")
	}
	if scenarios[3].Disconnected || scenarios[3].Solved == nil {
		t.Fatal("empty group is the normal topology")
	}
	if scenarios[3].Solved.Ev.G.NumEdges() != g.NumEdges() {
		t.Fatal("empty group must keep every edge")
	}
	for i, sc := range scenarios {
		if sc.Set.Name != groups[i].Name || len(sc.Set.Links) != len(groups[i].Links) {
			t.Fatalf("group %d carries %+v, want %+v", i, sc.Set, groups[i])
		}
		if sc.Disconnected {
			continue
		}
		if err := sc.Solved.Routing.Validate(); err != nil {
			t.Fatalf("group %d routing invalid: %v", i, err)
		}
		if sc.Solved.Perf.Ratio > sc.ECMPPerf+1e-9 {
			t.Fatalf("group %d: COYOTE %g worse than ECMP %g", i, sc.Solved.Perf.Ratio, sc.ECMPPerf)
		}
	}
}
