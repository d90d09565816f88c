package exp

import (
	"context"
	"fmt"

	"github.com/coyote-te/coyote/internal/failover"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/strategy"
)

// The scen-* experiments sweep generated scenarios — rather than the fixed
// synthetic corpus — through the parallel evaluator, demonstrating the
// scenario engine end to end: every experiment derives its topology from
// cfg.Seed, so the suite is reproducible yet unbounded (change the seed,
// get a fresh scenario).

// ScenSweep generates a topology with the named generator and margin-sweeps
// it under a demand model.
func ScenSweep(ctx context.Context, gen string, p scen.Params, model string, cfg Config) (*Table, error) {
	p.Seed = cfg.Seed
	g, err := scen.Generate(gen, p)
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("Scenario sweep — %s (n=%d, seed %d)", gen, g.NumNodes(), cfg.Seed)
	return SweepGraph(ctx, title, g, model, cfg)
}

// scenTimeOfDay optimizes one static COYOTE configuration on a generated
// grid WAN, then plays a seeded diurnal demand sequence sampled inside the
// uncertainty box against it: per step, the normalized utilization of the
// static COYOTE routing vs ECMP. The point of the paper made measurable:
// one robust configuration serves the whole day.
func scenTimeOfDay(ctx context.Context, p scen.Params, steps int, cfg Config) (*Table, error) {
	in, err := scenInput("grid", p, "gravity", cfg, true)
	if err != nil {
		return nil, err
	}
	box, day := in.day(steps)
	ev := cfg.evaluator(in.g, in.dags, box)
	sv, err := strategy.Solve(ctx, ev, cfg.Options())
	if err != nil {
		return nil, err
	}
	ecmp := oblivious.ECMPOnDAGs(in.g, in.dags)

	out := &Table{
		Title: fmt.Sprintf("Time-of-day sequence — grid %dx%d, %d steps inside the margin-2 box (normalized utilization)",
			p.Rows, p.Cols, steps),
		Columns: []string{"step", "COYOTE", "ECMP"},
	}
	for i, D := range day {
		norm := ev.OptDAG(D)
		out.AddRow(fmt.Sprintf("t%02d", i),
			f2(sv.Routing.MaxUtilization(D)/norm),
			f2(ecmp.MaxUtilization(D)/norm))
	}
	return out, nil
}

// scenSRLG enumerates shared-risk link groups on a generated ring WAN and
// precomputes a re-optimized configuration per group failure via
// failover.PrecomputeGroups — the multi-link extension of the failover
// experiment.
func scenSRLG(ctx context.Context, p scen.Params, groups int, cfg Config) (*Table, error) {
	in, err := scenInput("ring", p, "gravity", cfg, false)
	if err != nil {
		return nil, err
	}
	box, _ := in.day(0)
	suite := scen.SRLGPartition(in.g, groups, cfg.Seed)
	scenarios, err := failover.PrecomputeGroups(ctx, in.g, box, suite, cfg.Params)
	if err != nil {
		return nil, err
	}
	out := &Table{
		Title:   fmt.Sprintf("SRLG failures — ring n=%d, %d risk groups, gravity, margin 2", in.g.NumNodes(), len(suite)),
		Columns: []string{"group", "links", "COYOTE", "ECMP", "status"},
	}
	for i := range scenarios {
		out.AddRow(scenarioRow(&scenarios[i], suite[i].Name, fmt.Sprint(len(suite[i].Links)))...)
	}
	return out, nil
}
