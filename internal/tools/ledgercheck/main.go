// Command ledgercheck gates CI on the deterministic counts of the traced
// benchmark ledger (bench/README.md): it compares every run of a
// `go run ./bench -trace 1 -json RESULT` file with the committed expected
// counts, prints expected and got per differing row, and exits 1 if there
// is one. A PR that moves a count edits the expected file and says why.
//
//	go run ./internal/tools/ledgercheck testdata/ledger-counts.json result.json
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// gated are the ledger rows that are bit-deterministic for a fixed seed,
// and go.allocs_per_op, which moves by a few mallocs in 70 k from run to
// run (runtime-internal allocation) and so gets a ±2 % band.
var gated = []string{
	"lp.solves_per_op", "lp.pivots_per_op", "lp.phase1_pivots_per_op",
	"lp.dual_pivots_per_op", "lp.refactorizations_per_op", "lp.dense_fallbacks",
	"oblivious.adversary_calls", "oblivious.rounds", "oblivious.scenarios",
	"gpopt.steps", "failover.plans", "delta.outer_iters_per_event",
	"delta.scenarios_per_event", "fibbing.fake_nodes", "fibbing.churn_per_lies",
	"wcmp.virtual_links", "dagx.edges_total", "par.tasks_per_op", "par.loops_per_op",
	"go.allocs_per_op",
}

type run struct {
	Workload string             `json:"workload"`
	Values   map[string]float64 `json:"values"`
}

// row is m[name], or NaN — which differs from everything — when absent.
func row(m map[string]float64, name string) float64 {
	if v, ok := m[name]; ok {
		return v
	}
	return math.NaN()
}

// check writes one line per differing row to w and returns how many it
// wrote. An untraced run has no ledger rows, so all of its rows differ.
func check(want map[string]map[string]float64, runs []run, w io.Writer) int {
	bad := 0
	for _, r := range runs {
		for _, name := range gated {
			exp, got, tol := row(want[r.Workload], name), row(r.Values, name), 0.0
			if name == "go.allocs_per_op" {
				tol = 0.02 * exp
			}
			if !(math.Abs(got-exp) <= tol) {
				bad++
				fmt.Fprintf(w, "%s %s: expected %v, got %v\n", r.Workload, name, exp, got)
			}
		}
	}
	if len(runs) == 0 {
		bad++
		fmt.Fprintln(w, "the result holds no run")
	}
	return bad
}

func main() {
	var want map[string]map[string]float64
	var got struct{ Runs []run }
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: ledgercheck EXPECTED.json RESULT.json")
		os.Exit(2)
	}
	for i, v := range []any{&want, &got} {
		data, err := os.ReadFile(os.Args[i+1])
		if err == nil {
			err = json.Unmarshal(data, v)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ledgercheck: %s: %v\n", os.Args[i+1], err)
			os.Exit(2)
		}
	}
	if bad := check(want, got.Runs, os.Stderr); bad > 0 {
		fmt.Fprintf(os.Stderr, "ledgercheck: %d row(s) differ from %s\n", bad, os.Args[1])
		os.Exit(1)
	}
	fmt.Printf("ledgercheck: %s agrees with %s\n", os.Args[2], os.Args[1])
}
