package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchmarkFile mirrors BENCHMARK.json at the repo root: the contract this
// benchmark is run under, and the only place the regression bounds live.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// side is one result file's view of one (metric, workload): a value per
// timed run and, when there is a single run, the raw samples behind it.
type side struct {
	runs    []float64
	samples []float64
}

func (s side) median() float64 { return median(s.runs) }

// noise is the run-to-run spread when the file holds several runs, else the
// spread of the single run's samples; known is false when it has neither.
func (s side) noise() (spreadShare float64, known bool) {
	if len(s.runs) >= 2 {
		return spread(s.runs), true
	}
	if len(s.samples) >= 2 {
		return spread(s.samples), true
	}
	return 0, false
}

func (s side) quartileText() string {
	xs := s.runs
	if len(xs) < 2 {
		xs = s.samples
	}
	if len(xs) < 2 {
		return "-"
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("[%.4g, %.4g]", q1, q3)
}

func collect(f *resultFile, workload, metric string, traced bool) side {
	var s side
	for _, r := range f.Runs {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		if v, ok := r.Values[metric]; ok {
			s.runs = append(s.runs, v)
			s.samples = r.Samples[metric]
		}
	}
	if len(s.runs) > 1 {
		s.samples = nil
	}
	return s
}

// verdict judges B against A for one metric by the rule of the
// choosing-metrics guide (§6 to §8): worse when B's median is worse than A's
// by more than the bound; better when it is better by more than A's own
// spread (a gain is never claimed against a single value of unknown spread);
// unresolved, not unchanged, when A's spread is wider than the bound — unless
// every run of B reads better (or worse) than every run of A.
func verdict(better string, bound float64, a, b side) string {
	ma, mb := a.median(), b.median()
	if math.IsNaN(ma) || math.IsNaN(mb) || ma == 0 {
		return "unresolved"
	}
	worseBy := (mb - ma) / math.Abs(ma)
	sign := 1.0
	if better == "higher" {
		worseBy, sign = -worseBy, -1
	}
	allBetter, allWorse := len(a.runs) >= 2 && len(b.runs) >= 2, len(a.runs) >= 2 && len(b.runs) >= 2
	for _, x := range a.runs {
		for _, y := range b.runs {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
			if sign*(y-x) <= 0 {
				allWorse = false
			}
		}
	}
	noise, known := a.noise()
	if noise > bound {
		switch {
		case allBetter:
			return "better"
		case allWorse && worseBy > bound:
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case worseBy > bound:
		return "worse"
	case known && -worseBy > noise:
		return "better"
	}
	return "within-bound"
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareMain prints one row per (metric, workload) with both medians, their
// quartiles, the ratio B/A, and the verdict. It exits 1 when any row is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json   (A is the base of every ratio)")
		return 2
	}
	spec, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	var files [2]*resultFile
	for i, path := range args {
		if files[i], err = readResultFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
		fmt.Printf("%s: %s  %s\n", []string{"A", "B"}[i], path, files[i].Header)
	}
	ha, hb := files[0].Header, files[1].Header
	if ha.NProc != hb.NProc || ha.GoVersion != hb.GoVersion || ha.Seconds != hb.Seconds || ha.Seed != hb.Seed || ha.Runs != hb.Runs {
		fmt.Println("WARNING: the two files were not produced under the same conditions; timings are not comparable")
	}
	fmt.Printf("\n%-18s %-14s %12s %-24s %12s %-24s %9s  %s\n", "metric", "workload", "A median", "A quartiles", "B median", "B quartiles", "B/A", "verdict")
	worse := 0
	for _, m := range spec.EndToEnd {
		for _, w := range spec.Workloads {
			a, b := collect(files[0], w.Name, m.Name, false), collect(files[1], w.Name, m.Name, false)
			if len(a.runs) == 0 || len(b.runs) == 0 {
				continue
			}
			v := verdict(m.Better, m.Bound, a, b)
			if v == "worse" {
				worse++
			}
			fmt.Printf("%-18s %-14s %12.6g %-24s %12.6g %-24s %9.4f  %s (bound %g, %s is better)\n", m.Name, w.Name,
				a.median(), a.quartileText(), b.median(), b.quartileText(), b.median()/a.median(), v, m.Bound, m.Better)
		}
	}
	fmt.Printf("\n%-36s %-14s %14s %14s %9s\n", "layer metric (no bound)", "workload", "A", "B", "B/A")
	for _, m := range spec.PerLayer {
		for _, w := range spec.Workloads {
			a, b := collect(files[0], w.Name, m.Name, true), collect(files[1], w.Name, m.Name, true)
			if len(a.runs) == 0 || len(b.runs) == 0 || (a.median() == 0 && b.median() == 0) {
				continue
			}
			fmt.Printf("%-36s %-14s %14.6g %14.6g %9.4f\n", m.Name, w.Name, a.median(), b.median(), ratio(b.median(), a.median()))
		}
	}
	if worse > 0 {
		fmt.Printf("\n%d rows are worse than their bound allows\n", worse)
		return 1
	}
	return 0
}

// aaMain runs the timed suite twice on the same code and prints, per
// (metric, workload), both values and their ratio: the noise floor every
// bound has to clear. It fails when a ratio leaves its metric's bound or a
// deterministic count differs.
func aaMain(seed int64, seconds float64) int {
	spec, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -aa:", err)
		return 2
	}
	var files [2]*resultFile
	for i := range files {
		fmt.Printf("-- A/A pass %d\n", i+1)
		if files[i], _, err = suite(workloadNames, seed, seconds, 1, false); err != nil {
			fmt.Fprintln(os.Stderr, "bench -aa:", err)
			return 1
		}
	}
	bad := files[0].failed() + files[1].failed()
	fmt.Printf("\n%-18s %-14s %14s %14s %9s %7s\n", "metric", "workload", "first", "second", "ratio", "bound")
	for _, m := range spec.EndToEnd {
		for _, w := range workloadNames {
			a, b := collect(files[0], w, m.Name, false).median(), collect(files[1], w, m.Name, false).median()
			r := b / a
			mark := ""
			if !(math.Abs(r-1) <= m.Bound) {
				mark = "  OUT OF BOUND"
				bad++
			}
			fmt.Printf("%-18s %-14s %14.6g %14.6g %9.4f %7g%s\n", m.Name, w, a, b, r, m.Bound, mark)
		}
	}
	for i, ra := range files[0].Runs {
		rb := files[1].Runs[i]
		for k, v := range ra.Counts {
			if rb.Counts[k] != v {
				fmt.Printf("count %s on %s differs: %v then %v\n", k, ra.Workload, v, rb.Counts[k])
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Printf("\nA/A failed: %d failed operations, ratios out of bound or differing counts\n", bad)
		return 1
	}
	fmt.Println("\nA/A passed: every ratio within its bound, every count equal")
	return 0
}
