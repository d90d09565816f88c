package main

import (
	"strings"
	"testing"
)

func TestCheck(t *testing.T) {
	expected := func() map[string]float64 {
		m := map[string]float64{}
		for i, name := range gated {
			m[name] = float64(100 * (i + 1))
		}
		m["go.allocs_per_op"] = 70000
		return m
	}
	want := map[string]map[string]float64{"cold-geant": expected()}
	for _, tc := range []struct {
		name   string
		row    string
		value  float64
		differ string // "" = passes
	}{
		{"identical", "lp.solves_per_op", 100, ""},
		{"one extra solve", "lp.solves_per_op", 101, "cold-geant lp.solves_per_op: expected 100, got 101"},
		{"allocs +1 %", "go.allocs_per_op", 70700, ""},
		{"allocs +3 %", "go.allocs_per_op", 72100, "cold-geant go.allocs_per_op: expected 70000, got 72100"},
		{"allocs -3 %", "go.allocs_per_op", 67900, "cold-geant go.allocs_per_op: expected 70000, got 67900"},
	} {
		got := expected()
		got[tc.row] = tc.value
		var out strings.Builder
		bad := check(want, []run{{Workload: "cold-geant", Values: got}}, &out)
		if tc.differ == "" && bad != 0 || tc.differ != "" && (bad != 1 || strings.TrimSpace(out.String()) != tc.differ) {
			t.Errorf("%s: %d differing row(s), output %q; want %q", tc.name, bad, out.String(), tc.differ)
		}
	}

	// A row missing on either side, an untraced run and an empty result
	// must not pass for want of anything to compare.
	var out strings.Builder
	got := expected()
	delete(got, "gpopt.steps")
	if check(want, []run{{Workload: "cold-geant", Values: got}}, &out) != 1 ||
		check(want, []run{{Workload: "scale-ba42", Values: expected()}}, &out) != len(gated) ||
		check(want, []run{{Workload: "cold-geant", Values: map[string]float64{"op_p50_s": 2}}}, &out) != len(gated) ||
		check(want, nil, &out) != 1 {
		t.Errorf("a missing row, unknown workload, untraced run or empty result passed:\n%s", out.String())
	}
}
