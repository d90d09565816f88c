package exp

import (
	"context"

	"github.com/coyote-te/coyote/internal/failover"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/strategy"
)

// failoverTable exercises the precomputed failure configurations that
// §VI-A of the paper describes: for every single-link failure of NSF, the
// re-optimized COYOTE configuration versus ECMP on the surviving network
// (gravity base demands, margin 2).
func failoverTable(ctx context.Context, cfg Config) (*Table, error) {
	in, err := loadInput("NSF", "gravity", cfg, false)
	if err != nil {
		return nil, err
	}
	box, _ := in.day(0)
	normal, err := strategy.Coyote(ctx, in.g, box, cfg.Params)
	if err != nil {
		return nil, err
	}
	scenarios, err := failover.PrecomputeGroups(ctx, in.g, box, scen.SingleLinkFailures(in.g), cfg.Params)
	if err != nil {
		return nil, err
	}
	out := &Table{
		Title:   "Failure scenarios — NSF, gravity, margin 2 (precomputed per-link configs)",
		Columns: []string{"failed link", "COYOTE", "ECMP", "status"},
	}
	out.AddRow("(none)", f2(normal.Perf.Ratio), "", "normal")
	var worst *failover.GroupScenario
	for i := range scenarios {
		sc := &scenarios[i]
		out.AddRow(scenarioRow(sc, sc.Set.Name)...)
		if !sc.Disconnected && (worst == nil || sc.Solved.Perf.Ratio > worst.Solved.Perf.Ratio) {
			worst = sc
		}
	}
	if worst != nil {
		out.AddRow("worst: "+worst.Set.Name, f2(worst.Solved.Perf.Ratio), f2(worst.ECMPPerf), "")
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
