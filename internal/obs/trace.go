package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects span records for one run. Tracing is off by default and
// nil-safe end to end: code under instrumentation calls StartSpan
// unconditionally, and when the context carries no tracer the returned
// *Span is nil and every method on it is a no-op. A Tracer only ever
// observes — it records wall time and attributes, so results are
// bit-identical with tracing on or off (enforced by parity tests).
type Tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []SpanRecord
}

// SpanRecord is one finished span.
type SpanRecord struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"` // 0 = root
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // offset from the tracer epoch
	Dur    time.Duration `json:"dur_ns"`
	Attrs  []Attr        `json:"attrs,omitempty"`
}

// Attr is one span attribute.
type Attr struct {
	Key string `json:"key"`
	Val any    `json:"val"`
}

// Span is a live (not yet ended) span. A nil *Span is valid and inert.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs []Attr
}

// NewTracer returns an empty tracer whose epoch is now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

type tracerKey struct{}
type spanKey struct{}

// WithTracer attaches the tracer to the context; StartSpan below it
// records into t. A nil tracer returns ctx unchanged.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

// StartSpan opens a span named name under the context's current span (if
// any) and returns a derived context carrying the new span. When the
// context is nil or carries no tracer it returns (ctx, nil) without
// allocating — the instrumentation disappears.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		return ctx, nil
	}
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	if t == nil {
		return ctx, nil
	}
	var parent uint64
	if ps, _ := ctx.Value(spanKey{}).(*Span); ps != nil {
		parent = ps.id
	}
	s := &Span{t: t, id: t.nextID.Add(1), parent: parent, name: name, start: time.Now()}
	return context.WithValue(ctx, spanKey{}, s), s
}

// Attr attaches a key/value attribute and returns the span for chaining.
// Values should be JSON-encodable scalars. No-op on a nil span.
func (s *Span) Attr(key string, val any) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
	s.mu.Unlock()
	return s
}

// Active reports whether the span records anywhere — the gate for
// measurement work (extra time.Now calls) that only pays off under
// tracing.
func (s *Span) Active() bool { return s != nil }

// End closes the span and records it. No-op on a nil span; ending twice
// records twice (don't).
func (s *Span) End() {
	if s == nil {
		return
	}
	rec := SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start.Sub(s.t.epoch),
		Dur:    time.Since(s.start),
		Attrs:  s.attrs,
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, rec)
	s.t.mu.Unlock()
}

// Records returns the finished spans sorted by start time (ties: longer
// first, then ID).
func (t *Tracer) Records() []SpanRecord {
	t.mu.Lock()
	out := append([]SpanRecord(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Dur != out[j].Dur {
			return out[i].Dur > out[j].Dur
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// WriteJSONL writes one SpanRecord JSON object per line, in start order —
// the lossless machine-readable export.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, r := range t.Records() {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one Chrome trace-event ("X" = complete event). The format
// is what chrome://tracing and Perfetto's legacy loader accept.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome writes the spans as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) and chrome://tracing. Spans are laid out on
// integer "thread" lanes by greedy interval partitioning: each span takes
// the lowest lane free at its start time, so a serial pipeline reads as
// one row and nested/parallel stages stack flame-graph style below it.
// Lane assignment is presentation only; span identity and parentage ride
// in args.id/args.parent.
func (t *Tracer) WriteChrome(w io.Writer) error {
	recs := t.Records()
	events := make([]chromeEvent, 0, len(recs))
	var laneEnd []time.Duration
	for _, r := range recs {
		lane := -1
		for i, end := range laneEnd {
			if end <= r.Start {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = r.Start + r.Dur
		args := map[string]any{"id": r.ID}
		if r.Parent != 0 {
			args["parent"] = r.Parent
		}
		for _, a := range r.Attrs {
			args[a.Key] = a.Val
		}
		events = append(events, chromeEvent{
			Name: r.Name,
			Cat:  category(r.Name),
			Ph:   "X",
			Ts:   float64(r.Start) / float64(time.Microsecond),
			Dur:  float64(r.Dur) / float64(time.Microsecond),
			Pid:  1,
			Tid:  lane + 1,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"displayTimeUnit": "ms",
		"traceEvents":     events,
	})
}

// category derives the trace-event category from the span-name prefix
// ("lp.solve" → "lp"), so Perfetto can filter per subsystem.
func category(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// WriteFile writes the trace to path: JSONL when the name ends in .jsonl,
// Chrome trace-event JSON otherwise (the -trace contract of the CLIs).
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var werr error
	if strings.HasSuffix(path, ".jsonl") {
		werr = t.WriteJSONL(f)
	} else {
		werr = t.WriteChrome(f)
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("obs: writing trace %s: %w", path, werr)
	}
	return nil
}

// Len returns the number of finished spans.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
