package exp

import (
	"context"
	"time"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/oblivious"
)

// ablationAdversary compares the production corner-sampling adversary
// against the exact one (PerfExact: cutting planes on the dual-length
// tables, equal to Appendix C's slave LP) on a small topology: the estimated
// PERF (a lower bound) versus the exact value, and their runtimes. This
// quantifies the accuracy cost of the substitution documented in DESIGN.md
// §2.5.
func ablationAdversary(ctx context.Context, cfg Config) (*Table, error) {
	in, err := loadInput("Abilene", "gravity", cfg, true)
	if err != nil {
		return nil, err
	}
	ecmp := oblivious.ECMPOnDAGs(in.g, in.dags)
	out := &Table{
		Title:   "Ablation — corner-sampling adversary vs exact (cutting planes) (Abilene, ECMP)",
		Columns: []string{"margin", "sampled PERF", "exact PERF", "gap", "t(sample)", "t(exact)"},
	}
	// Rows stay serial on purpose: this experiment reports wall-clock
	// timings, and overlapping rows would contaminate them. Both adversaries
	// run on this goroutine.
	for _, margin := range cfg.Margins {
		ev := cfg.evaluator(in.g, in.dags, demand.MarginBox(in.base, margin))
		t0 := time.Now()
		sampled := ev.Perf(ecmp)
		tSample := time.Since(t0)
		t1 := time.Now()
		exact, err := ev.PerfExact(ctx, ecmp)
		if err != nil {
			return nil, err
		}
		tExact := time.Since(t1)
		gap := 0.0
		if exact.Ratio > 0 {
			gap = 1 - sampled.Ratio/exact.Ratio
		}
		out.AddRow(f1(margin), f2(sampled.Ratio), f2(exact.Ratio), f2(gap),
			tSample.Round(time.Millisecond).String(), tExact.Round(time.Millisecond).String())
	}
	return out, nil
}
