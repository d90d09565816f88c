package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_events_total", "events")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	g := r.NewGaugeVec("test_level", "level").With()
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}

	cv := r.NewCounterVec("test_kinds_total", "by kind", "kind")
	cv.With("a").Inc()
	cv.With("a").Inc()
	cv.With("b").Inc()
	if cv.With("a").Value() != 2 || cv.With("b").Value() != 1 {
		t.Fatalf("labeled counters: a=%d b=%d", cv.With("a").Value(), cv.With("b").Value())
	}
}

// TestSnapshotSince: a per-run count is the difference of two snapshots —
// plain counters, labelled children, a histogram's _sum and _count, and a
// family first touched between the two snapshots, which counts from zero.
func TestSnapshotSince(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_events_total", "events")
	cv := r.NewCounterVec("test_kinds_total", "by kind", "kind", "phase")
	h := r.NewHistogram("test_seconds", "latency", []float64{1})
	late := r.NewCounterVec("test_late_total", "touched late", "kind")
	c.Add(3)
	cv.With("a", "x").Inc()
	h.Observe(0.5)

	prev := r.Snapshot()
	c.Add(2)
	cv.With("a", "x").Add(4)
	cv.With("b", "y").Inc()
	h.Observe(2)
	h.Observe(0.25)
	late.With("z").Add(7)

	got := r.Snapshot().Since(prev)
	want := map[string]float64{
		"test_events_total":     2,
		"test_kinds_total{a,x}": 4,
		"test_kinds_total{b,y}": 1,
		"test_seconds_sum":      2.25,
		"test_seconds_count":    2,
		"test_late_total{z}":    7,
	}
	if len(got) != len(want) {
		t.Fatalf("Since = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("Since[%q] = %v, want %v", k, got[k], v)
		}
	}
	if c.Value() != 5 {
		t.Fatalf("taking a delta moved the counter: %d, want 5", c.Value())
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if math.Abs(h.Sum()-55.65) > 1e-9 {
		t.Fatalf("sum = %v, want 55.65", h.Sum())
	}
	snap := r.Snapshot()
	if len(snap) != 1 || len(snap[0].Metrics) != 1 {
		t.Fatalf("snapshot shape: %+v", snap)
	}
	if n := snap[0].Metrics[0].Count; n != 5 {
		t.Fatalf("count = %d, want 5", n)
	}
	b := snap[0].Metrics[0].Buckets
	// le=0.1 gets 0.05 and 0.1 (le semantics), le=1 adds 0.5, le=10 adds 5,
	// +Inf adds 50.
	wantCounts := []uint64{2, 3, 4, 5}
	for i, want := range wantCounts {
		if b[i].Count != want {
			t.Fatalf("bucket %d (le %v) = %d, want %d", i, b[i].Upper, b[i].Count, want)
		}
	}
	if !math.IsInf(b[3].Upper, 1) {
		t.Fatalf("last bucket upper = %v, want +Inf", b[3].Upper)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewGaugeVec("dup_total", "")
}

// TestPromRoundTrip is the writer/validator contract: everything the
// exposition writer emits must parse cleanly under the strict parser, with
// the values intact.
func TestPromRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("rt_solves_total", "solves so far").Add(7)
	cv := r.NewCounterVec("rt_events_total", "by kind", "kind")
	cv.With("up\"date\\n").Add(2) // hostile label value: quote, backslash
	cv.With("fail").Inc()
	r.NewGaugeVec("rt_progress", "done fraction").With().Set(0.25)
	h := r.NewHistogramVec("rt_wait_seconds", "queue wait", []float64{0.001, 0.1}, "pool")
	h.With("p1").Observe(0.0005)
	h.With("p1").Observe(2)
	r.NewCounterVec("rt_empty_total", "registered but untouched", "kind")

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse of own output failed: %v\n%s", err, buf.String())
	}
	byName := map[string]ParsedFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if f := byName["rt_solves_total"]; f.Type != "counter" || len(f.Samples) != 1 || f.Samples[0].Value != 7 {
		t.Fatalf("rt_solves_total: %+v", f)
	}
	if f := byName["rt_events_total"]; len(f.Samples) != 2 {
		t.Fatalf("rt_events_total: %+v", f)
	} else {
		found := false
		for _, s := range f.Samples {
			if s.Labels["kind"] == "up\"date\\n" && s.Value == 2 {
				found = true
			}
		}
		if !found {
			t.Fatalf("escaped label value lost: %+v", f.Samples)
		}
	}
	if f := byName["rt_wait_seconds"]; f.Type != "histogram" || len(f.Samples) != 5 {
		t.Fatalf("rt_wait_seconds: %+v", f)
	}
	// The untouched family still exposes its schema.
	if f, ok := byName["rt_empty_total"]; !ok || f.Type != "counter" || len(f.Samples) != 0 {
		t.Fatalf("empty family: %+v ok=%v", f, ok)
	}
}

func TestConcurrentUpdatesAndSnapshots(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("cc_total", "")
	cv := r.NewCounterVec("cc_kinds_total", "", "kind")
	h := r.NewHistogram("cc_seconds", "", ExpBuckets(0.001, 10, 4))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				cv.With([]string{"a", "b", "c"}[i%3]).Inc()
				h.Observe(float64(i) / 100)
				if i%100 == 0 {
					var buf bytes.Buffer
					if err := r.WriteProm(&buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	var observed uint64
	for _, f := range r.Snapshot() {
		if f.Name == "cc_seconds" {
			observed = f.Metrics[0].Count
		}
	}
	if observed != 8000 {
		t.Fatalf("histogram count = %d, want 8000", observed)
	}
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseProm(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
}
