package exp

import (
	"bytes"
	"context"
	"testing"

	"github.com/coyote-te/coyote/internal/obs"
)

// TestTracedRunsMatchUntraced runs experiments under a tracer and without
// one: the tables must be byte-identical (wall-clock columns aside), and
// the trace must hold the solver spans beneath the experiment, not only
// its root.
func TestTracedRunsMatchUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("four experiments twice in -short mode")
	}
	for _, tc := range []struct {
		id        string
		span      string // a span the trace must hold
		wallClock int    // trailing wall-clock columns left out of the comparison
	}{
		{"failover", "oblivious.optimize", 0},
		{"scen-srlg", "oblivious.optimize", 0},
		{"ablation-adv", "oblivious.perf_exact", 2},
		{"running", "oblivious.optimize", 0},
	} {
		t.Run(tc.id, func(t *testing.T) {
			plain, err := Run(context.Background(), tc.id, Quick())
			if err != nil {
				t.Fatal(err)
			}
			tracer := obs.NewTracer()
			traced, err := Run(obs.WithTracer(context.Background(), tracer), tc.id, Quick())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := render(t, traced, tc.wallClock), render(t, plain, tc.wallClock); !bytes.Equal(got, want) {
				t.Fatalf("traced table\n%s\ndiffers from untraced\n%s", got, want)
			}
			n := 0
			for _, r := range tracer.Records() {
				if r.Name == tc.span {
					n++
				}
			}
			if n == 0 {
				t.Fatalf("trace of %d spans holds no %s span", tracer.Len(), tc.span)
			}
		})
	}
}

// render is the table's text with the last drop columns cut from every row.
func render(t *testing.T, tab *Table, drop int) []byte {
	t.Helper()
	cut := &Table{Title: tab.Title, Columns: tab.Columns[:len(tab.Columns)-drop]}
	for _, row := range tab.Rows {
		cut.AddRow(row[:len(row)-drop]...)
	}
	var buf bytes.Buffer
	if _, err := cut.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
