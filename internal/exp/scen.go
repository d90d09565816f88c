package exp

import (
	"fmt"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/failover"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/scen"
)

// The scen-* experiments sweep generated scenarios — rather than the fixed
// synthetic corpus — through the parallel evaluator, demonstrating the
// scenario engine end to end: every experiment derives its topology from
// cfg.Seed, so the suite is reproducible yet unbounded (change the seed,
// get a fresh scenario).

// SweepGraph runs the Fig. 6-style margin sweep on an arbitrary topology
// under a named demand model. It backs the scen-* experiments, the file/…
// units of internal/sweep and coyote-scen sweep -in.
func SweepGraph(title string, g *graph.Graph, model string, cfg Config) (*Table, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if !g.Connected() {
		return nil, fmt.Errorf("exp: topology %q is not strongly connected", title)
	}
	base, err := baseMatrix(g, model, cfg.Seed)
	if err != nil {
		return nil, err
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	rows, err := marginSweep(g, dags, base, cfg)
	if err != nil {
		return nil, err
	}
	return sweepTable(fmt.Sprintf("%s, %s model (PERF vs margin)", title, model), rows, cfg.Oblivious), nil
}

// ScenSweep generates a topology with the named generator and margin-sweeps
// it under a demand model.
func ScenSweep(gen string, p scen.Params, model string, cfg Config) (*Table, error) {
	p.Seed = cfg.Seed
	g, err := scen.Generate(gen, p)
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("Scenario sweep — %s (n=%d, seed %d)", gen, g.NumNodes(), cfg.Seed)
	return SweepGraph(title, g, model, cfg)
}

// ScenTimeOfDay optimizes one static COYOTE configuration on a generated
// grid WAN, then plays a seeded diurnal demand sequence sampled inside the
// uncertainty box against it: per step, the normalized utilization of the
// static COYOTE routing vs ECMP. The point of the paper made measurable:
// one robust configuration serves the whole day.
func ScenTimeOfDay(p scen.Params, steps int, cfg Config) (*Table, error) {
	p.Seed = cfg.Seed
	g, err := scen.Generate("grid", p)
	if err != nil {
		return nil, err
	}
	base, err := baseMatrix(g, "gravity", cfg.Seed)
	if err != nil {
		return nil, err
	}
	box := demand.MarginBox(base, 2)
	dags := dagx.BuildAll(g, dagx.Augmented)
	ev := cfg.evaluator(g, dags, box)
	routing, _ := cfg.optimize(ev)
	ecmp := oblivious.ECMPOnDAGs(g, dags)

	out := &Table{
		Title: fmt.Sprintf("Time-of-day sequence — grid %dx%d, %d steps inside the margin-2 box (normalized utilization)",
			p.Rows, p.Cols, steps),
		Columns: []string{"step", "COYOTE", "ECMP"},
	}
	for i, D := range scen.TimeOfDay(box, steps, 0.1, cfg.Seed) {
		norm := ev.OptDAG(D)
		out.AddRow(fmt.Sprintf("t%02d", i),
			f2(ev.MaxUtilization(routing, D)/norm),
			f2(ev.MaxUtilization(ecmp, D)/norm))
	}
	return out, nil
}

// ScenSRLG enumerates shared-risk link groups on a generated ring WAN and
// precomputes a re-optimized configuration per group failure via
// failover.PrecomputeGroups — the multi-link extension of the failover
// experiment.
func ScenSRLG(p scen.Params, groups int, cfg Config) (*Table, error) {
	p.Seed = cfg.Seed
	g, err := scen.Generate("ring", p)
	if err != nil {
		return nil, err
	}
	base, err := baseMatrix(g, "gravity", cfg.Seed)
	if err != nil {
		return nil, err
	}
	box := demand.MarginBox(base, 2)
	suite := scen.SRLGPartition(g, groups, cfg.Seed)
	scenarios, err := failover.PrecomputeGroups(g, box, scen.LinkSets(suite), cfg.params())
	if err != nil {
		return nil, err
	}
	out := &Table{
		Title:   fmt.Sprintf("SRLG failures — ring n=%d, %d risk groups, gravity, margin 2", g.NumNodes(), len(suite)),
		Columns: []string{"group", "links", "COYOTE", "ECMP", "status"},
	}
	for i, sc := range scenarios {
		links := fmt.Sprint(len(sc.Failed))
		if sc.Disconnected {
			out.AddRow(suite[i].Name, links, "", "", "partitions network")
			continue
		}
		out.AddRow(suite[i].Name, links, f2(sc.Solved.Perf.Ratio), f2(sc.ECMPPerf), "ok")
	}
	return out, nil
}
