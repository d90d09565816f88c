package exp

import (
	"context"
	"fmt"
	"time"

	"github.com/coyote-te/coyote/internal/delta"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/strategy"
)

// serveDrift replays a time-of-day demand sequence from the scenario
// engine through an online-controller Session (internal/delta): at each
// step, the operator's uncertainty box re-centers on the observed demand
// and the session recomputes warm — previous log-ratio/Adam state,
// carried critical matrices, shared OPTDAG cache — while a cold batch
// recompute on the same box provides the reference. The table records the
// warm-vs-cold PERF and wall-clock cost, and the LSA churn of realizing
// each step's configuration (fibbing.Diff against the previous step).
//
// PERF columns are deterministic for a fixed seed and worker count; the
// ms columns are wall-clock measurements and vary run to run.
func serveDrift(ctx context.Context, p scen.Params, steps int, cfg Config) (*Table, error) {
	in, err := scenInput("grid", p, "gravity", cfg, true)
	if err != nil {
		return nil, err
	}
	dayBox, day := in.day(steps)

	ses, err := delta.NewSession(in.g, dayBox, delta.Config{
		OptIters: cfg.OptIters,
		AdvIters: cfg.AdvIters,
		Samples:  cfg.Samples,
		Eps:      cfg.Eps,
		Seed:     cfg.Seed,
		Workers:  cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	if _, err := ses.Lies(3); err != nil { // baseline lie set for churn diffs
		return nil, err
	}

	out := &Table{
		Title: fmt.Sprintf("serve-drift — grid %dx%d, %d time-of-day steps (warm session vs cold recompute)",
			p.Rows, p.Cols, steps),
		Columns: []string{"step", "warm-PERF", "cold-PERF", "warm-ms", "cold-ms", "churn", "LSAs"},
	}

	// The drifting operator view: at each step the box narrows to ±25%
	// around the observed demand matrix.
	const stepMargin = 1.25
	for i, D := range day {
		stepBox := demand.MarginBox(D, stepMargin)

		warmStart := time.Now()
		ev, err := ses.UpdateBounds(stepBox)
		if err != nil {
			return nil, err
		}
		warmMs := time.Since(warmStart)

		coldStart := time.Now()
		cold, err := strategy.Solve(ctx, cfg.evaluator(in.g, in.dags, stepBox), cfg.Options())
		if err != nil {
			return nil, err
		}
		coldMs := time.Since(coldStart)

		lies, err := ses.Lies(3)
		if err != nil {
			return nil, err
		}
		out.AddRow(
			fmt.Sprintf("t%02d", i),
			f2(ev.Perf),
			f2(cold.Perf.Ratio),
			fmt.Sprintf("%d", warmMs.Milliseconds()),
			fmt.Sprintf("%d", coldMs.Milliseconds()),
			fmt.Sprint(lies.Diff.Churn()),
			fmt.Sprint(lies.FakeNodes),
		)
	}
	return out, nil
}
