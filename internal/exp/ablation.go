package exp

import (
	"time"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/topo"
)

// AblationAdversary compares the production corner-sampling adversary
// against the exact per-link slave LP of Appendix C on a small topology:
// the estimated PERF (a lower bound) versus the exact value, and their
// runtimes. This quantifies the accuracy cost of the substitution
// documented in DESIGN.md §2.5.
func AblationAdversary(cfg Config) (*Table, error) {
	g, err := topo.Load("Abilene")
	if err != nil {
		return nil, err
	}
	base, err := baseMatrix(g, "gravity", cfg.Seed)
	if err != nil {
		return nil, err
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	ecmp := oblivious.ECMPOnDAGs(g, dags)
	out := &Table{
		Title:   "Ablation — corner-sampling adversary vs exact slave LP (Abilene, ECMP)",
		Columns: []string{"margin", "sampled PERF", "exact PERF", "gap", "t(sample)", "t(LP)"},
	}
	// Rows stay serial on purpose: this experiment reports wall-clock
	// timings, and overlapping rows would contaminate them. The evaluator
	// itself still uses the configured worker pool.
	for _, margin := range cfg.Margins {
		box := demand.MarginBox(base, margin)
		ev := cfg.evaluator(g, dags, box)
		t0 := time.Now()
		sampled := ev.Perf(ecmp)
		tSample := time.Since(t0)
		t1 := time.Now()
		exact, err := ev.PerfExact(ecmp)
		if err != nil {
			return nil, err
		}
		tLP := time.Since(t1)
		gap := 0.0
		if exact.Ratio > 0 {
			gap = 1 - sampled.Ratio/exact.Ratio
		}
		out.AddRow(f1(margin), f2(sampled.Ratio), f2(exact.Ratio), f2(gap),
			tSample.Round(time.Millisecond).String(), tLP.Round(time.Millisecond).String())
	}
	return out, nil
}
