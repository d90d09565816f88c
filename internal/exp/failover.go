package exp

import (
	"fmt"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/failover"
	"github.com/coyote-te/coyote/internal/topo"
)

// Failover exercises the precomputed failure configurations that §VI-A of
// the paper describes: for every single-link failure of a topology, the
// re-optimized COYOTE configuration versus ECMP on the surviving network
// (gravity base demands, margin 2).
func Failover(topoName string, cfg Config) (*Table, error) {
	g, err := topo.Load(topoName)
	if err != nil {
		return nil, err
	}
	base, err := baseMatrix(g, "gravity", cfg.Seed)
	if err != nil {
		return nil, err
	}
	box := demand.MarginBox(base, 2)
	plan, err := failover.Precompute(g, box, cfg.params())
	if err != nil {
		return nil, err
	}
	out := &Table{
		Title:   fmt.Sprintf("Failure scenarios — %s, gravity, margin 2 (precomputed per-link configs)", topoName),
		Columns: []string{"failed link", "COYOTE", "ECMP", "status"},
	}
	out.AddRow("(none)", f2(plan.Normal.Perf.Ratio), "", "normal")
	for _, sc := range plan.Scenarios {
		e := g.Edge(sc.Failed[0])
		label := g.Name(e.From) + "–" + g.Name(e.To)
		if sc.Disconnected {
			out.AddRow(label, "", "", "partitions network")
			continue
		}
		out.AddRow(label, f2(sc.Solved.Perf.Ratio), f2(sc.ECMPPerf), "ok")
	}
	if w := plan.WorstScenario(); w != nil {
		e := g.Edge(w.Failed[0])
		out.AddRow("worst: "+g.Name(e.From)+"–"+g.Name(e.To), f2(w.Solved.Perf.Ratio), f2(w.ECMPPerf), "")
	}
	return out, nil
}
