package exp

import (
	"github.com/coyote-te/coyote/internal/failover"
)

// failoverTable exercises the precomputed failure configurations that
// §VI-A of the paper describes: for every single-link failure of NSF, the
// re-optimized COYOTE configuration versus ECMP on the surviving network
// (gravity base demands, margin 2).
func failoverTable(cfg Config) (*Table, error) {
	in, err := loadInput("NSF", "gravity", cfg, false)
	if err != nil {
		return nil, err
	}
	box, _ := in.day(0)
	plan, err := failover.Precompute(in.g, box, cfg.params())
	if err != nil {
		return nil, err
	}
	link := func(sc *failover.GroupScenario) string {
		e := in.g.Edge(sc.Failed[0])
		return in.g.Name(e.From) + "–" + in.g.Name(e.To)
	}
	out := &Table{
		Title:   "Failure scenarios — NSF, gravity, margin 2 (precomputed per-link configs)",
		Columns: []string{"failed link", "COYOTE", "ECMP", "status"},
	}
	out.AddRow("(none)", f2(plan.Normal.Perf.Ratio), "", "normal")
	for i := range plan.Scenarios {
		out.AddRow(scenarioRow(&plan.Scenarios[i], link(&plan.Scenarios[i]))...)
	}
	if w := plan.WorstScenario(); w != nil {
		out.AddRow("worst: "+link(w), f2(w.Solved.Perf.Ratio), f2(w.ECMPPerf), "")
	}
	return out, nil
}

// scenarioRow is one failure scenario's row, shared by failover and
// scen-srlg: its label cells, then COYOTE's and ECMP's PERF on the
// survivor and the status.
func scenarioRow(sc *failover.GroupScenario, label ...string) []string {
	if sc.Disconnected {
		return append(label, "", "", "partitions network")
	}
	return append(label, f2(sc.Solved.Perf.Ratio), f2(sc.ECMPPerf), "ok")
}
