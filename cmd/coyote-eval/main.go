// Command coyote-eval regenerates the tables and figures of the paper's
// evaluation (§VI, §VII) plus the negative-result demonstrations and
// ablations. Experiment IDs follow DESIGN.md §3.
//
// Usage:
//
//	coyote-eval -list
//	coyote-eval -run fig6
//	coyote-eval -run table1 -quick
//	coyote-eval -all
//
// To margin-sweep an arbitrary topology file outside the registered
// experiments, use coyote-scen sweep -in.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/coyote-te/coyote/internal/exp"
	"github.com/coyote-te/coyote/internal/lp"
	"github.com/coyote-te/coyote/internal/mcf"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/strategy"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiment IDs and TE strategies")
		run      = flag.String("run", "", "experiment ID to run")
		all      = flag.Bool("all", false, "run every experiment")
		quick    = flag.Bool("quick", false, "use the reduced (smoke-test) configuration")
		strats   = flag.String("strategy", "", "comma-separated strategy subset for the portfolio experiments (default: all; see -list)")
		workers  = flag.Int("workers", 0, "worker-pool size for the evaluation engine (0 = one per CPU; results are identical for any value)")
		lpStats  = flag.Bool("lp-stats", false, "print solver statistics after each run: the sparse LP core (iterations, refactorizations, warm-start and dual-restart hit rates, dense fallbacks) and the FPTAS work counts")
		metrics  = flag.Bool("metrics", false, "dump the metrics registry (Prometheus text) to stderr before exiting")
		traceOut = flag.String("trace", "", "write a per-experiment span trace here (.jsonl = span records, else Chrome trace-event JSON)")
	)
	flag.Parse()
	printLPStats = *lpStats
	// SIGINT/SIGTERM stop between experiments (the in-flight experiment
	// finishes) and return through main, so the deferred trace flush and
	// metrics dump still run — an interrupted -all leaves a loadable trace.
	interruptCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *traceOut != "" {
		tracer := obs.NewTracer()
		traceCtx = obs.WithTracer(context.Background(), tracer)
		defer func() {
			if err := tracer.WriteFile(*traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "coyote-eval:", err)
			} else {
				fmt.Fprintf(os.Stderr, "wrote %d trace spans to %s\n", tracer.Len(), *traceOut)
			}
		}()
	}
	if *metrics {
		defer obs.Default.WriteProm(os.Stderr)
	}

	if *list {
		printList()
		return
	}
	cfg := exp.Default()
	if *quick {
		cfg = exp.Quick()
	}
	cfg.Workers = *workers
	if *strats != "" {
		for _, name := range strings.Split(*strats, ",") {
			name = strings.TrimSpace(name)
			if _, err := strategy.New(name, strategy.Config{}); err != nil {
				fatal(err)
			}
			cfg.Strategies = append(cfg.Strategies, name)
		}
	}
	switch {
	case *all:
		for _, id := range exp.IDs() {
			if interruptCtx.Err() != nil {
				fmt.Fprintln(os.Stderr, "coyote-eval: interrupted; skipping remaining experiments")
				break
			}
			if err := runOne(id, cfg); err != nil {
				fatal(err)
			}
		}
	case *run != "":
		if err := runOne(*run, cfg); err != nil {
			if errors.Is(err, exp.ErrUnknownID) {
				fmt.Fprintf(os.Stderr, "coyote-eval: %v\n", err)
				fmt.Fprintln(os.Stderr, "coyote-eval: use -list to print the experiment IDs")
				os.Exit(2)
			}
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "coyote-eval: -run <id>, -all or -list required")
		flag.Usage()
		os.Exit(2)
	}
}

// printList answers -list: everything the -run and -strategy flags accept.
func printList() {
	fmt.Println("experiments (-run):")
	for _, id := range exp.IDs() {
		fmt.Printf("  %s\n", id)
	}
	fmt.Println("\nTE strategies (-strategy, portfolio experiments):")
	for _, name := range strategy.Names() {
		fmt.Printf("  %s\n", name)
	}
}

// traceCtx carries the -trace tracer into every experiment; a plain
// background context when tracing is off.
var traceCtx = context.Background()

func runOne(id string, cfg exp.Config) error {
	start := time.Now()
	resetSolverStats()
	ctx, span := obs.StartSpan(traceCtx, "exp:"+id)
	cfg.Ctx = ctx
	tab, err := exp.Run(id, cfg)
	span.End()
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	if _, err := tab.WriteTo(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	reportLPStats(id)
	return nil
}

// printLPStats mirrors the -lp-stats flag for reportLPStats.
var printLPStats bool

// resetSolverStats starts one run's accounting for reportLPStats.
func resetSolverStats() {
	lp.ResetGlobalStats()
	mcf.ResetGlobalApproxStats()
	oblivious.ResetGlobalAdversaryStats()
}

// reportLPStats prints the per-run counters of the sparse LP core: how
// many simplex solves the run triggered, the iteration/refactorization
// totals (with the refactorizations forced by an update failing its
// stability test, expected 0), and how often a warm-start basis was
// offered and accepted (PerfExact's per-link chain, the evaluator's
// carried OPTDAG basis). The
// second line is the work of the solver that normalizes past the exact
// node limit instead, the FPTAS (deterministic counts, DESIGN.md §12); the
// third says what the adversary did with its corner candidates — how many
// normalizations it found cached, solved, or avoided through a dual-length
// bound — which is where either solver's solve count comes from.
func reportLPStats(run string) {
	if !printLPStats {
		return
	}
	st := lp.GlobalStats()
	fmt.Printf("[lp-stats %s] solves=%d iterations=%d phase1=%d dual=%d refactorizations=%d (stability=%d) warm=%d/%d (hit rate %.0f%%) dual-restarts=%d/%d (hit rate %.0f%%) dense-fallbacks=%d\n",
		run, st.Solves, st.Iterations, st.Phase1Iterations, st.DualIterations, st.Refactorizations,
		st.StabilityRefactorizations, st.WarmHits, st.WarmAttempts, 100*st.WarmHitRate(),
		st.DualHits, st.DualAttempts, 100*st.DualHitRate(),
		st.DenseFallbacks)
	ap := mcf.GlobalApproxStats()
	fmt.Printf("[fptas-stats %s] solves=%d phases=%d sptrees=%d retries=%d\n",
		run, ap.Solves, ap.Phases, ap.Trees, ap.Retries)
	ad := oblivious.GlobalAdversaryStats()
	fmt.Printf("[adversary-stats %s] candidates cached=%d solved=%d pruned=%d bound-violations=%d\n\n",
		run, ad.Cached, ad.Solved, ad.Pruned, ad.BoundViolations)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "coyote-eval:", err)
	os.Exit(1)
}
