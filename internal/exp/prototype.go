package exp

import (
	"context"
	"fmt"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/fibbing"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/ospf"
)

// fig12 reproduces the prototype evaluation of §VII: the three-node
// topology of Fig. 12a with two IP prefixes at t, the three 15-second
// traffic phases (0,2), (1,1), (2,0) Mb/s, and the packet-drop rates of
// the ECMP-achievable schemes TE1/TE2 versus COYOTE's per-prefix DAGs
// (realized with a single Fibbing lie per prefix). Each scheme is an OSPF
// LSDB; its link loads are those of the forwarding SPF installs over it,
// read back by fibbing.RealizedRouting.
func fig12(context.Context, Config) (*Table, error) {
	// The routers of Fig. 12a, then t's two prefixes as stub nodes.
	const s1, s2, t, t1, t2 graph.NodeID = 0, 1, 2, 3, 4
	// lsdb builds the topology with unit capacities and weights, except
	// the s1–t weight and the stub links, whose capacity no phase can fill.
	lsdb := func(s1tWeight float64) *ospf.LSDB {
		g := graph.New()
		for _, name := range []string{"s1", "s2", "t", "t1", "t2"} {
			g.AddNode(name)
		}
		g.AddLink(s1, t, 1, s1tWeight)
		g.AddLink(s2, t, 1, 1)
		g.AddLink(s1, s2, 1, 1)
		g.AddLink(t, t1, 2, 1)
		g.AddLink(t, t2, 2, 1)
		return ospf.NewLSDB(g)
	}
	// COYOTE: per-prefix DAGs — t1 splits at s1, t2 splits at s2. Each lie
	// costs as much as the direct path, so the source splits evenly.
	coyote := lsdb(1)
	for _, f := range []ospf.FakeNode{
		{Attached: s1, MapsTo: s2, Dest: t1, CostUp: 1, CostDown: 1},
		{Attached: s2, MapsTo: s1, Dest: t2, CostUp: 1, CostDown: 1},
	} {
		if err := coyote.Inject(f); err != nil {
			return nil, err
		}
	}
	schemes := []struct {
		name string
		db   *ospf.LSDB
	}{
		// TE1: both sources route everything on the direct link.
		{"TE1", lsdb(1)},
		// TE2: s1 splits by ECMP (same DAG for both prefixes), s2 direct.
		{"TE2", lsdb(2)},
		{"COYOTE", coyote},
	}
	// Mb/s from s1 to t1 and from s2 to t2 in each phase.
	phases := [3][2]float64{{0, 2}, {1, 1}, {2, 0}}

	out := &Table{
		Title:   "Fig. 12 — prototype emulation: packet drop rate per 15 s phase",
		Columns: []string{"scheme", "phase(0,2)", "phase(1,1)", "phase(2,0)", "cumulative", "fake nodes"},
	}
	for _, sc := range schemes {
		r, err := fibbing.RealizedRouting(sc.db)
		if err != nil {
			return nil, err
		}
		row := []string{sc.name}
		var sent, dropped float64
		for _, rates := range phases {
			D := demand.NewMatrix(sc.db.G.NumNodes())
			D.Set(s1, t1, rates[0])
			D.Set(s2, t2, rates[1])
			drop, err := fluidDrops(sc.db.G, r.LinkLoads(D))
			if err != nil {
				return nil, fmt.Errorf("fig12 %s: %w", sc.name, err)
			}
			row = append(row, fmt.Sprintf("%.0f%%", 100*drop/D.Total()))
			sent += D.Total()
			dropped += drop
		}
		out.AddRow(append(row, fmt.Sprintf("%.0f%%", 100*dropped/sent), fmt.Sprint(sc.db.NumFakeNodes()))...)
	}
	return out, nil
}

// fluidDrops returns the traffic that tail-dropping links lose under the
// offered loads, Σ_e max(0, load_e − c_e). The sum is exact only while no
// traffic crosses two overloaded links (the first one thins what reaches the
// second), so an overloaded link whose head forwards onto another overloaded
// link is an error.
func fluidDrops(g *graph.Graph, loads []float64) (float64, error) {
	over := func(id graph.EdgeID) bool { return loads[id] > g.Edge(id).Capacity }
	dropped := 0.0
	for _, e := range g.Edges() {
		if !over(e.ID) {
			continue
		}
		for _, next := range g.Out(e.To) {
			if over(next) {
				return 0, fmt.Errorf("overloaded links %s→%s and %s→%s in series",
					g.Name(e.From), g.Name(e.To), g.Name(e.To), g.Name(g.Edge(next).To))
			}
		}
		dropped += loads[e.ID] - e.Capacity
	}
	return dropped, nil
}
