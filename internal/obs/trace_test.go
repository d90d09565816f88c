package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestStartSpanNilSafe(t *testing.T) {
	// No tracer in the context: spans must be nil and inert.
	ctx, sp := StartSpan(context.Background(), "noop")
	if sp != nil {
		t.Fatal("span without tracer should be nil")
	}
	sp.Attr("k", 1).End() // must not panic
	if _, sp2 := StartSpan(ctx, "child"); sp2 != nil {
		t.Fatal("child span without tracer should be nil")
	}
	var nilCtxSpan *Span
	if _, s := StartSpan(nil, "x"); s != nilCtxSpan { //nolint:staticcheck // nil ctx is the documented degenerate case
		t.Fatal("nil context should yield nil span")
	}
}

func TestSpanTreeAndRecords(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	ctx, root := StartSpan(ctx, "session.update")
	cctx, child := StartSpan(ctx, "gpopt.run")
	child.Attr("iters", 200)
	_, grand := StartSpan(cctx, "lp.solve")
	grand.End()
	child.End()
	root.End()

	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName["gpopt.run"].Parent != byName["session.update"].ID {
		t.Fatalf("child parentage: %+v", recs)
	}
	if byName["lp.solve"].Parent != byName["gpopt.run"].ID {
		t.Fatalf("grandchild parentage: %+v", recs)
	}
	if byName["session.update"].Parent != 0 {
		t.Fatalf("root should have parent 0: %+v", byName["session.update"])
	}
	if len(byName["gpopt.run"].Attrs) != 1 || byName["gpopt.run"].Attrs[0].Key != "iters" {
		t.Fatalf("attrs lost: %+v", byName["gpopt.run"])
	}
	// Records are sorted by start; the root started first.
	if recs[0].Name != "session.update" {
		t.Fatalf("sort order: %+v", recs)
	}
}

func TestWriteChromeLanesAreDisjoint(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	// A root with two overlapping children (parallel stage), plus a later
	// serial span.
	ctx, root := StartSpan(ctx, "root")
	_, a := StartSpan(ctx, "par.a")
	_, b := StartSpan(ctx, "par.b")
	time.Sleep(2 * time.Millisecond)
	a.End()
	b.End()
	root.End()
	_, tail := StartSpan(WithTracer(context.Background(), tr), "tail")
	tail.End()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	// Within a lane, events must not partially overlap (Perfetto renders
	// each tid as a track of disjoint slices).
	type iv struct{ s, e float64 }
	lanes := map[int][]iv{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Fatalf("event phase %q, want X", e.Ph)
		}
		lanes[e.Tid] = append(lanes[e.Tid], iv{e.Ts, e.Ts + e.Dur})
	}
	for tid, ivs := range lanes {
		for i := range ivs {
			for j := i + 1; j < len(ivs); j++ {
				if ivs[i].s < ivs[j].e && ivs[j].s < ivs[i].e {
					t.Fatalf("lane %d has overlapping events: %+v", tid, ivs)
				}
			}
		}
	}
}

func TestWriteFileFormats(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	_, sp := StartSpan(ctx, "unit")
	sp.Attr("unit", "exp/running").End()

	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "trace.json")
	jsonlPath := filepath.Join(dir, "trace.jsonl")
	if err := tr.WriteFile(jsonPath); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteFile(jsonlPath); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("jsonl lines = %d, want 1", len(lines))
	}
	var rec SpanRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Name != "unit" || len(rec.Attrs) != 1 {
		t.Fatalf("jsonl record: %+v", rec)
	}
}
