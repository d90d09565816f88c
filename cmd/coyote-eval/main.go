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
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/coyote-te/coyote/internal/exp"
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
		lpStats  = flag.Bool("lp-stats", false, "print after each run how far every solver counter moved: the sparse LP core (coyote_lp_*), the FPTAS (coyote_mcf_fptas_*) and the adversary's candidates (coyote_oblivious_*)")
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
	before := obs.Default.Snapshot()
	ctx, span := obs.StartSpan(traceCtx, "exp:"+id)
	tab, err := exp.Run(ctx, id, cfg)
	span.End()
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	if _, err := tab.WriteTo(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	if printLPStats {
		reportLPStats(id, obs.Default.Snapshot().Since(before))
	}
	return nil
}

// printLPStats mirrors the -lp-stats flag.
var printLPStats bool

// solverFamilies are the metric-name prefixes -lp-stats reports, one line
// each: the sparse LP core (solves, pivots, refactorizations, warm starts
// and numerical failures), the FPTAS that normalizes past the exact node
// limit (deterministic counts, DESIGN.md §12), and what the adversary did
// with its corner candidates (cached, solved, or pruned by a dual-length
// bound). Stability refactorizations, numerical failures, FPTAS retries and
// bound violations are expected to stay at 0.
var solverFamilies = []string{"coyote_lp_", "coyote_mcf_fptas_", "coyote_oblivious_"}

// reportLPStats prints one run's movement of every series in
// solverFamilies, as name=value pairs sorted by name.
func reportLPStats(run string, delta map[string]float64) {
	keys := make([]string, 0, len(delta))
	for k := range delta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, prefix := range solverFamilies {
		line := "[lp-stats " + run + "]"
		for _, k := range keys {
			if strings.HasPrefix(k, prefix) {
				line += " " + k + "=" + strconv.FormatFloat(delta[k], 'f', -1, 64)
			}
		}
		fmt.Println(line)
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "coyote-eval:", err)
	os.Exit(1)
}
