package main

import (
	"encoding/json"
	"math"
	"reflect"
	"regexp"
	"testing"
	"time"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/topo"
)

// These tests run no workload: they pin the statistics the report is built
// from, the span arithmetic, and the agreement between BENCHMARK.json and the
// names this command can emit.

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false}, {49, 0, false}, {50, 0.8, true}, {60, 0.8, true}, {99, 0.8, true},
		{100, 0.9, true}, {199, 0.9, true}, {200, 0.95, true}, {1000, 0.99, true}, {10000, 0.999, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if ok != c.ok || p != c.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && float64(c.n)*(1-p) < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than ten samples beyond it", c.n, p)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.8, 8}, {0.9, 9}, {1, 10}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4) prints.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{2.1, 2.4, 2.2, 2.3}, 2.125, 2.375},
		{[]float64{7, 7}, 7, 7},
		{[]float64{4}, 4, 4},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	ns := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 0, Parent: -1, Op: 1, Name: "op", Start: ns(0), End: ns(100)},
		{ID: 1, Parent: 0, Op: 1, Name: "a", Start: ns(10), End: ns(30)},
		{ID: 2, Parent: 0, Op: 1, Name: "b", Start: ns(40), End: ns(90)},
		{ID: 3, Parent: 2, Op: 1, Name: "a", Start: ns(50), End: ns(60)},
	}
	self := selfTimes(spans)
	want := []time.Duration{30 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 10 * time.Millisecond}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if got := unattributed(spans); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("unattributed share %v, want 0.3", got)
	}
	if total, n := byName(spans, "a"); total != 30*time.Millisecond || n != 2 {
		t.Errorf("byName(a) = %v, %d; want 30ms, 2", total, n)
	}
}

func TestRecorderLinksParentsAndOps(t *testing.T) {
	rec := newRecorder()
	rec.nextOp()
	root := rec.begin("op")
	rec.do("layer", func() { rec.do("inner", func() {}) })
	rec.closed("reported", 5*time.Millisecond)
	rec.end(root)
	rec.nextOp()
	rec.do("probe", func() {})
	want := []struct {
		name       string
		parent, op int
	}{{"op", -1, 1}, {"layer", 0, 1}, {"inner", 1, 1}, {"reported", 0, 1}, {"probe", -1, 2}}
	if len(rec.spans) != len(want) {
		t.Fatalf("%d spans, want %d", len(rec.spans), len(want))
	}
	for i, w := range want {
		s := rec.spans[i]
		if s.Name != w.name || s.Parent != w.parent || s.Op != w.op || s.End < s.Start {
			t.Errorf("span %d = %+v, want name %s parent %d op %d", i, s, w.name, w.parent, w.op)
		}
	}
	if d := rec.spans[3].dur(); d < 5*time.Millisecond {
		t.Errorf("closed span lasts %v, want at least 5ms", d)
	}
	both := appendSpans(rec.spans, rec.spans)
	if s := both[6]; len(both) != 10 || s.ID != 6 || s.Parent != 5 || s.Op != 4 || both[9].Parent != -1 || both[9].Op != 5 {
		t.Errorf("appended spans do not keep IDs unique: %+v", both[5:])
	}
	line, err := json.Marshal(rec.spans[1])
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(line, &fields); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"id", "parent", "op", "name", "start_ns", "end_ns"} {
		if _, ok := fields[k]; !ok {
			t.Errorf("span JSON lacks %q: %s", k, line)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkFileMatchesWhatTheCommandEmits(t *testing.T) {
	b, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) || len(b.Command) == 0 {
		t.Errorf("paths %v command %v", b.Paths, b.Command)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, the command runs %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the command runs %q", i, w.Name, workloadNames[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, the command emits %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		name(m.Name)
		if got := (metricSpec{m.Name, m.Unit, m.Better}); got != endToEnd[i] {
			t.Errorf("end-to-end metric %d is %+v, the command emits %+v", i, got, endToEnd[i])
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if m := b.EndToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s in s, lower is better; got %+v", m)
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, the command emits %d (at most 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		if got := (metricSpec{m.Name, m.Unit, m.Better}); got != perLayer[i].metricSpec {
			t.Errorf("per-layer metric %d is %+v, the command emits %+v", i, got, perLayer[i].metricSpec)
		}
	}
}

func TestEveryLayerMetricNamesItsTarget(t *testing.T) {
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, l := range perLayer {
		if !e2e[l.Moves] {
			t.Errorf("%s should move %q, which is not an end-to-end metric", l.Name, l.Moves)
		}
		if !unitRE.MatchString(l.Unit) || (l.Better != "lower" && l.Better != "higher") {
			t.Errorf("%s: unit %q better %q", l.Name, l.Unit, l.Better)
		}
		if len(l.On)+len(l.Bypassed) == 0 {
			t.Errorf("%s names no workload", l.Name)
		}
		for _, w := range append(append([]string{}, l.On...), l.Bypassed...) {
			if !isWorkload(w) {
				t.Errorf("%s names workload %q, which does not exist", l.Name, w)
			}
		}
	}
	// A fresh ledger has every name once; set refuses any other.
	l := newLedger()
	if len(l) != len(perLayer) {
		t.Errorf("ledger has %d names, the table %d: a name is listed twice", len(l), len(perLayer))
	}
	defer func() {
		if recover() == nil {
			t.Error("ledger.set accepted a name outside the table")
		}
	}()
	l.set("no.such_metric", 1)
}

func TestContractLineHasExactlyTheContractKeys(t *testing.T) {
	r := newResult(coldGeant, 1, false)
	for i, m := range endToEnd {
		r.Values[m.Name] = float64(i) + 0.5
	}
	r.attempt(true, "")
	r.attempt(false, "op %d failed", 1)
	line, err := r.contractLine()
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || string(got["correct"]) != "false" || string(got["attempted"]) != "2" || string(got["failed"]) != "1" {
		t.Errorf("contract line %s", line)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics on the line, want %d", len(metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		e := metrics[m.Name]
		if len(e) != 2 || e["unit"] != m.Unit || e["value"] == nil {
			t.Errorf("metric %s on the line is %v", m.Name, e)
		}
	}
	if miss := r.missing(); len(miss) != 0 {
		t.Errorf("missing %v", miss)
	}
	delete(r.Values, "op_p50_s")
	if miss := r.missing(); !reflect.DeepEqual(miss, []string{"op_p50_s"}) {
		t.Errorf("missing %v, want [op_p50_s]", miss)
	}
}

func TestVerdictRule(t *testing.T) {
	runs := func(xs ...float64) side { return side{runs: xs} }
	cases := []struct {
		name   string
		better string
		bound  float64
		a, b   side
		want   string
	}{
		{"worse beyond the bound", "lower", 0.1, runs(1, 1.01, 0.99, 1), runs(1.2, 1.21, 1.19, 1.2), "worse"},
		{"better beyond the spread", "lower", 0.1, runs(1, 1.01, 0.99, 1), runs(0.9, 0.91, 0.89, 0.9), "better"},
		{"inside bound and spread", "lower", 0.1, runs(1, 1.04, 0.96, 1), runs(1.01, 1.03, 0.97, 1.01), "within-bound"},
		{"spread wider than the bound", "lower", 0.1, runs(1, 1.3, 0.7, 1.1), runs(1.05, 1.2, 0.8, 1.0), "unresolved"},
		{"wide spread but every run better", "lower", 0.1, runs(1, 1.3, 0.8, 1.1), runs(0.5, 0.6, 0.4, 0.55), "better"},
		{"higher is better, got lower", "higher", 0.1, runs(10, 10.1, 9.9, 10), runs(8, 8.1, 7.9, 8), "worse"},
		{"higher is better, got higher", "higher", 0.1, runs(10, 10.1, 9.9, 10), runs(12, 12.1, 11.9, 12), "better"},
		{"single runs judged on samples' spread", "lower", 0.1,
			side{runs: []float64{1}, samples: []float64{0.5, 1, 1.5, 2}}, side{runs: []float64{1.05}}, "unresolved"},
		{"identical deterministic values", "lower", 0.005, runs(1.785), runs(1.785), "within-bound"},
		{"no gain against a value of unknown spread", "lower", 0.15, runs(2562.74), runs(2562.61), "within-bound"},
		{"deterministic runs, any gain is beyond the spread", "lower", 0.15, runs(250, 250, 250), runs(240, 240, 240), "better"},
	}
	for _, c := range cases {
		if got := verdict(c.better, c.bound, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestOpSeedsRepeatOnlyTheFirst(t *testing.T) {
	if opSeed(7, 0) != opSeed(7, 1) {
		t.Error("ops 0 and 1 must share a seed: they are compared bit for bit")
	}
	seen := map[int64]bool{}
	for i := 1; i < 20; i++ {
		s := opSeed(7, i)
		if seen[s] {
			t.Errorf("op %d repeats seed %d", i, s)
		}
		seen[s] = true
	}
	if opSeed(7, 3) == opSeed(8, 3) {
		t.Error("different run seeds must give different op seeds")
	}
}

func TestOnlineScheduleIsAFunctionOfTheSeed(t *testing.T) {
	g, err := topo.Load("NSF")
	if err != nil {
		t.Fatal(err)
	}
	base := demand.Gravity(g, 1)
	a, b, c := newOnlineSchedule(g, base, 3), newOnlineSchedule(g, base, 3), newOnlineSchedule(g, base, 4)
	if len(a.links) == 0 {
		t.Fatal("NSF has no non-bridge link")
	}
	cycle := map[int]bool{}
	differs := false
	for r := 0; r < len(a.links); r++ {
		la, ba := a.round(r)
		lb, bb := b.round(r)
		lc, bc := c.round(r)
		if la != lb || !reflect.DeepEqual(ba.Max.D, bb.Max.D) || !reflect.DeepEqual(ba.Min.D, bb.Min.D) {
			t.Fatalf("round %d differs between two schedules of seed 3", r)
		}
		if la != lc || !reflect.DeepEqual(ba.Max.D, bc.Max.D) {
			differs = true
		}
		cycle[int(la)] = true
	}
	if len(cycle) != len(a.links) {
		t.Errorf("one cycle fails %d distinct links, want all %d", len(cycle), len(a.links))
	}
	if !differs {
		t.Error("seeds 3 and 4 give the same schedule")
	}
}
