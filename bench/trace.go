package main

import (
	"bufio"
	"encoding/json"
	"io"
	"time"
)

// span is one timed call from the benchmark into a layer's exported
// functions. Spans of one operation share Op; Parent is the ID of the span
// that was open when this one began (-1 for an operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// epoch is the zero of every span's clock, so that the spans of several
// traced runs of one process line up in one file.
var epoch = time.Now()

// recorder keeps spans in memory; they are written out when the run ends.
// It is used from the benchmark's single client goroutine only.
type recorder struct {
	spans []span
	open  []int // stack of open span IDs
	op    int
}

func newRecorder() *recorder { return &recorder{} }

// nextOp starts a new operation: spans recorded from now on carry its ID.
func (r *recorder) nextOp() int {
	r.op++
	return r.op
}

func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: r.op, Name: name, Start: int64(time.Since(epoch))})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) time.Duration {
	r.spans[id].End = int64(time.Since(epoch))
	r.open = r.open[:len(r.open)-1]
	return r.spans[id].dur()
}

// do records fn as one span and returns its duration.
func (r *recorder) do(name string, fn func()) time.Duration {
	id := r.begin(name)
	fn()
	return r.end(id)
}

// closed records a span that has just ended and lasted d, as a child of the
// open span: for callees that report their own elapsed time on completion.
func (r *recorder) closed(name string, d time.Duration) {
	id := r.begin(name)
	r.spans[id].Start -= int64(d)
	r.end(id)
}

// selfTimes returns, per span ID, the span's duration minus the part of it
// its direct children cover. Children of one parent never overlap here (one
// client, one goroutine), so the part covered is the sum of their durations.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// byName sums the durations of every span called name and counts them.
func byName(spans []span, name string) (total time.Duration, n int) {
	for _, s := range spans {
		if s.Name == name {
			total += s.dur()
			n++
		}
	}
	return total, n
}

// secondsPer is the mean duration in seconds of the spans called name, 0
// when there are none.
func secondsPer(spans []span, name string) float64 {
	total, n := byName(spans, name)
	if n == 0 {
		return 0
	}
	return total.Seconds() / float64(n)
}

// appendSpans adds one recorder's spans to a collection of earlier ones,
// shifting its span and operation IDs past theirs so both stay unique.
func appendSpans(all, more []span) []span {
	idShift, opShift := len(all), 0
	for _, s := range all {
		if s.Op >= opShift {
			opShift = s.Op + 1
		}
	}
	for _, s := range more {
		s.ID += idShift
		if s.Parent >= 0 {
			s.Parent += idShift
		}
		s.Op += opShift
		all = append(all, s)
	}
	return all
}

// writeSpans writes one JSON object per line: id, parent, op, name,
// start_ns, end_ns (nanoseconds since the process started).
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
