package failover

import (
	"testing"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
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

func TestPrecomputePlan(t *testing.T) {
	g := ringWithSpur()
	plan, err := Precompute(g, smallBox(g), Config{OptIters: 80, AdvIters: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Normal == nil || plan.Normal.Perf.Ratio <= 0 {
		t.Fatal("missing normal-case routing")
	}
	if len(plan.Scenarios) != len(g.Links()) {
		t.Fatalf("%d scenarios, want %d", len(plan.Scenarios), len(g.Links()))
	}
	// Exactly one bridge: the spur link.
	if nd := plan.NumDisconnecting(); nd != 1 {
		t.Fatalf("%d disconnecting failures, want 1", nd)
	}
	for _, sc := range plan.Scenarios {
		if sc.Disconnected {
			if sc.Solved != nil {
				t.Fatal("disconnected scenario must not carry a routing")
			}
			continue
		}
		if sc.Solved == nil {
			t.Fatalf("scenario %d missing routing", sc.Failed)
		}
		if err := sc.Solved.Routing.Validate(); err != nil {
			t.Fatalf("scenario %d routing invalid: %v", sc.Failed, err)
		}
		if sc.Solved.Perf.Ratio > sc.ECMPPerf+1e-9 {
			t.Fatalf("scenario %d: COYOTE %g worse than ECMP %g", sc.Failed, sc.Solved.Perf.Ratio, sc.ECMPPerf)
		}
		if sc.Solved.Ev.G.NumEdges() != g.NumEdges()-2 {
			t.Fatalf("scenario %d survivor has %d edges", sc.Failed, sc.Solved.Ev.G.NumEdges())
		}
	}
	if plan.WorstScenario() == nil {
		t.Fatal("expected a worst scenario")
	}
}

func TestWorstScenarioSkipsDisconnected(t *testing.T) {
	g := ringWithSpur()
	plan, err := Precompute(g, smallBox(g), Config{OptIters: 60, AdvIters: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := plan.WorstScenario()
	if w == nil || w.Disconnected {
		t.Fatal("worst scenario must be a connected one")
	}
}

func TestPrecomputeNodes(t *testing.T) {
	g := ringWithSpur()
	scenarios, err := PrecomputeNodes(g, smallBox(g), Config{OptIters: 60, AdvIters: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != g.NumNodes() {
		t.Fatalf("%d node scenarios, want %d", len(scenarios), g.NumNodes())
	}
	// Failing node 0 disconnects the spur (it hangs off node 0); failing
	// the spur keeps the ring intact.
	if !scenarios[0].Disconnected {
		t.Fatal("failing node 0 must disconnect the spur")
	}
	spur, _ := g.NodeByName("spur")
	sc := scenarios[spur]
	if sc.Disconnected {
		t.Fatal("failing the spur leaves the ring connected")
	}
	if sc.Solved == nil || sc.Solved.Perf.Ratio <= 0 {
		t.Fatal("spur-failure scenario missing routing")
	}
	if err := sc.Solved.Routing.Validate(); err != nil {
		t.Fatalf("node scenario routing invalid: %v", err)
	}
}

func TestPrecomputeGroups(t *testing.T) {
	g := ringWithSpur()
	links := g.Links() // 4 ring links then the spur bridge
	groups := [][]graph.EdgeID{
		{links[0]},           // single ring link: survivable
		{links[0], links[2]}, // two opposite ring links: partitions the ring
		{links[4]},           // the spur bridge: disconnects
		{},                   // empty group: the normal topology
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
