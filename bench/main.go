// Command bench is the repository's one benchmark (BENCHMARK.json at the
// repo root names it). It runs four workloads in a single process — closed
// loop, one client, Workers:1 in every Options — checks their outputs, and
// prints every metric by name with its unit. End-to-end metrics come from an
// untraced run through the public API; a separate traced run records the
// benchmark's own spans around each layer's exported functions together with
// obs-registry and runtime.MemStats deltas at the same boundaries.
//
//	go run ./bench                                  every workload, timed then traced
//	go run ./bench -workload cold-geant             one workload, timed
//	go run ./bench -workload cold-geant -trace 1    one workload, traced
//	go run ./bench -aa                              the timed suite twice, ratios against the bounds
//	go run ./bench compare A.json B.json            verdict per (metric, workload)
//
// With -workload the last line of standard output is one JSON object:
// correct, attempted, failed, metrics. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// header makes two result files comparable, or visibly not.
type header struct {
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	GitCommit  string             `json:"git_commit"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Runs       int                `json:"runs"`
	Reps       map[string]int     `json:"reps"`
	WallS      map[string]float64 `json:"wall_s"` // per workload, all its runs, set-up included
}

// resultFile is what -json writes and compare reads.
type resultFile struct {
	Header header    `json:"header"`
	Runs   []*result `json:"runs"`
}

// commit is set by run.sh at link time; a plain go build stamps the binary
// with the revision instead.
var commit string

func gitCommit() string {
	if commit != "" {
		return commit
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func newHeader(seed int64, seconds float64, runs int) header {
	return header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitCommit: gitCommit(), Seed: seed, Seconds: seconds, Runs: runs,
		Reps: map[string]int{
			"fast_reps_per_op": fastRepsPerOp, "cheap_setup_reps": cheapSetupReps,
			"setup_reps_per_op": setupRepsPerOp, "session_setup_reps": sessionSetupReps,
			"traced_rounds": tracedRounds, "min_ops": minOps, "lie_budget": lieBudget,
		},
		WallS: map[string]float64{},
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (h header) String() string {
	return fmt.Sprintf("nproc %d  GOMAXPROCS %d  %s  commit %s  seed %d  seconds %g  runs %d",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.GitCommit, h.Seed, h.Seconds, h.Runs)
}

func (h header) print() {
	fmt.Println("bench:", h)
	fmt.Print("bench: reps")
	for _, k := range sortedKeys(h.Reps) {
		fmt.Printf("  %s %d", k, h.Reps[k])
	}
	fmt.Println()
}

// metricSpecs returns the specs a result's values are printed under.
func metricSpecs(traced bool) []metricSpec {
	if !traced {
		return endToEnd
	}
	specs := make([]metricSpec, len(perLayer))
	for i, l := range perLayer {
		specs[i] = l.metricSpec
	}
	return specs
}

func (r *result) print() {
	kind := "timed"
	if r.Traced {
		kind = "traced"
	}
	fmt.Printf("== %s  %s  seed %d  %d ops in %.1f s  attempted %d  failed %d\n",
		r.Workload, kind, r.Seed, r.Ops, r.WallS, r.Attempted, r.Failed)
	for _, m := range metricSpecs(r.Traced) {
		v, ok := r.Values[m.Name]
		if !ok {
			fmt.Printf("  %-36s missing\n", m.Name)
			continue
		}
		line := fmt.Sprintf("  %-36s %14.6g %-6s", m.Name, v, m.Unit)
		if xs := r.Samples[m.Name]; len(xs) > 0 {
			q1, q3 := quartiles(xs)
			line += fmt.Sprintf(" n=%d q1=%.6g q3=%.6g", len(xs), q1, q3)
			if p, ok := tailPercentile(len(xs)); ok {
				line += fmt.Sprintf(" p%g=%.6g", p*100, percentile(xs, p))
			}
		}
		fmt.Println(line)
	}
	// In brackets: what the workload reports beside the contract's metrics.
	for _, name := range sortedKeys(r.Samples) {
		if _, isMetric := r.Values[name]; !isMetric {
			fmt.Printf("  %-36s %14.6g %-6s n=%d\n", "("+name+" p50)", median(r.Samples[name]), "s", len(r.Samples[name]))
		}
	}
	if !r.Traced && r.Workload == sweepGolden && r.Values["op_p50_s"] > 0 {
		fmt.Printf("  %-36s %14.6g %-6s\n", "(units_per_s)", goldenUnits/r.Values["op_p50_s"], "1/s")
		fmt.Printf("  %-36s %14.6g %-6s\n", "(cached_units_per_s)", goldenUnits/r.Values["fast_p50_s"], "1/s")
	}
	for _, k := range sortedKeys(r.Counts) {
		fmt.Printf("  %-36s %14.6g %-6s\n", "("+k+")", r.Counts[k], "count")
	}
	for _, f := range r.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

// missing reports the metric names the result has no finite value for.
func (r *result) missing() []string {
	var out []string
	for _, m := range metricSpecs(r.Traced) {
		if v, ok := r.Values[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			out = append(out, m.Name)
		}
	}
	return out
}

// contractLine is the JSON object the driver reads from the last line.
func (r *result) contractLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range metricSpecs(r.Traced) {
		metrics[m.Name] = value{r.Values[m.Name], m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
}

func runOne(workload string, seed int64, seconds float64, traced bool) (*result, []span, error) {
	t0 := time.Now()
	var r *result
	var spans []span
	var err error
	if traced {
		r, spans, err = runTraced(workload, seed)
	} else {
		r, err = runTimed(workload, seed, seconds)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", workload, err)
	}
	if r.WallS == 0 {
		r.WallS = time.Since(t0).Seconds()
	}
	if miss := r.missing(); len(miss) > 0 && r.Failed == 0 {
		r.attempt(false, "metrics without a value: %v", miss)
	}
	return r, spans, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeSpansFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// suite runs the named workloads: runs timed runs of each (seeds seed,
// seed+1, …) and, when traced is set, one traced run.
func suite(names []string, seed int64, seconds float64, runs int, traced bool) (*resultFile, []span, error) {
	out := &resultFile{Header: newHeader(seed, seconds, runs)}
	out.Header.print()
	var spans []span
	for _, name := range names {
		t0 := time.Now()
		for k := 0; k < runs; k++ {
			r, _, err := runOne(name, seed+int64(k), seconds, false)
			if err != nil {
				return nil, nil, err
			}
			r.print()
			out.Runs = append(out.Runs, r)
		}
		if traced {
			r, s, err := runOne(name, seed, seconds, true)
			if err != nil {
				return nil, nil, err
			}
			r.print()
			out.Runs = append(out.Runs, r)
			spans = appendSpans(spans, s)
		}
		out.Header.WallS[name] = time.Since(t0).Seconds()
		fmt.Printf("== %s  wall %.1f s\n", name, out.Header.WallS[name])
	}
	return out, spans, nil
}

func (f *resultFile) failed() int {
	n := 0
	for _, r := range f.Runs {
		n += r.Failed
	}
	return n
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "run this workload only and print the result as one JSON line last")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "length of a workload's measured phase")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics of a timed run, 1 the per-layer metrics of a traced run")
	jsonPath := flag.String("json", "", "write the results to this file")
	spansPath := flag.String("spans", "", "write the traced runs' spans to this file, one JSON object per line")
	runs := flag.Int("runs", 1, "timed runs per workload (seeds seed, seed+1, …), so that compare has quartiles")
	aa := flag.Bool("aa", false, "run the timed suite twice and fail if any end-to-end metric differs by more than its bound")
	flag.Parse()
	switch {
	case flag.NArg() > 0:
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	case *workload != "" && !isWorkload(*workload):
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", *workload, workloadNames)
		os.Exit(2)
	case *aa:
		os.Exit(aaMain(*seed, *seconds))
	}

	// Without -workload: every workload, timed then traced. With it: that
	// workload once, timed or traced as -trace says.
	names, timedRuns, traced := workloadNames, *runs, true
	if *workload != "" {
		names, timedRuns, traced = []string{*workload}, 1, *trace != 0
		if traced {
			timedRuns = 0
		}
	}
	f, spans, err := suite(names, *seed, *seconds, timedRuns, traced)
	fatal(err)
	if *jsonPath != "" {
		fatal(writeJSON(*jsonPath, f))
	}
	if *spansPath != "" && traced {
		fatal(writeSpansFile(*spansPath, spans))
	}
	if *workload != "" {
		line, err := f.Runs[0].contractLine()
		fatal(err)
		fmt.Println(string(line))
	}
	if n := f.failed(); n > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d failed operations\n", n)
		os.Exit(1)
	}
}
