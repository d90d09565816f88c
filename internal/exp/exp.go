// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§VI, §VII) plus the negative-result
// demonstrations (§IV) and the design-choice ablations called out in
// DESIGN.md. Each experiment is registered by ID, and the registry (Run,
// IDs) is the only way to run one — from cmd/coyote-eval, sweep campaigns
// or the benchmark suite.
package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"unicode/utf8"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/oblivious"
)

// Table is the uniform output shape of every experiment: a titled grid.
// The JSON tags define the machine-readable form WriteJSON (and the -json
// flag of cmd/coyote-scen) emits.
type Table struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// WriteTo renders the table as aligned text, sizing and padding columns by
// characters (runes), not bytes. It is total over the whole
// Table value space: a zero Table, nil Columns/Rows, and ragged rows
// (shorter or longer than the header) all render without panicking — extra
// cells get their own trailing columns, missing cells render empty.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	sb.WriteString(t.Title)
	sb.WriteByte('\n')
	ncol := len(t.Columns)
	for _, row := range t.Rows {
		if len(row) > ncol {
			ncol = len(row)
		}
	}
	widths := make([]int, ncol)
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if n := utf8.RuneCountInString(cell); n > widths[i] {
				widths[i] = n
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if i < len(widths) {
				for p := utf8.RuneCountInString(cell); p < widths[i]; p++ {
					sb.WriteByte(' ')
				}
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// normalized returns a copy of t whose nil slices are replaced by empty
// ones, so the JSON encodings always carry "columns":[] / "rows":[] (never
// null) and an empty table round-trips to an empty table. Ragged rows are
// preserved as-is: raggedness is data, and both JSON forms and WriteTo
// represent it faithfully.
func (t *Table) normalized() *Table {
	out := &Table{Title: t.Title, Columns: t.Columns, Rows: t.Rows}
	if out.Columns == nil {
		out.Columns = []string{}
	}
	if out.Rows == nil {
		out.Rows = [][]string{}
	}
	copied := false
	for i, row := range t.Rows {
		if row != nil {
			continue
		}
		if !copied { // copy-on-write: don't mutate the caller's rows
			rows := make([][]string, len(t.Rows))
			copy(rows, t.Rows)
			out.Rows = rows
			copied = true
		}
		out.Rows[i] = []string{}
	}
	return out
}

// WriteJSON renders the table as indented JSON — the same shape as the
// struct ({"title", "columns", "rows"}), for machine consumption of sweep
// results. nil Columns/Rows encode as empty arrays, never null.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.normalized())
}

// WriteJSONLine renders the table as one compact JSON line (no internal
// newlines, one trailing '\n') — the JSONL building block the sweep
// harness streams campaign results through. Like WriteJSON it never emits
// null for missing Columns/Rows.
func (t *Table) WriteJSONLine(w io.Writer) error {
	return json.NewEncoder(w).Encode(t.normalized())
}

// f2 formats a ratio the way the paper's tables do (two decimals).
func f2(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.2f", v)
}

// f1 formats with one decimal (margins).
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// Config scales every experiment between a quick smoke run and the full
// paper-fidelity sweep.
type Config struct {
	Margins []float64 // uncertainty margins for sweeps
	// Params is the COYOTE solve's parameter set. Its Workers also bounds
	// the harness's worker pool: experiments spread topologies and data
	// points (margins, failure scenarios) across it (DESIGN.md §4). Tables
	// are bit-identical for any Workers value given the same Seed.
	oblivious.Params
	Oblivious bool // also compute the COYOTE-oblivious column (costlier)
	// Strategies restricts the portfolio experiments' strategy columns
	// (nil/empty = every registered strategy). omitempty keeps the JSON
	// encoding, and therefore every sweep cache key, unchanged when the
	// field is unset. Embedding Params reordered the encoded fields, which
	// changed every key once.
	Strategies []string `json:",omitempty"`
}

// evaluator builds the evaluator every experiment derives from its Config.
func (c Config) evaluator(g *graph.Graph, dags []*dagx.DAG, box *demand.Box) *oblivious.Evaluator {
	return oblivious.NewEvaluator(g, dags, box, c.EvalConfig())
}

// Default is the configuration used for the recorded results in
// EXPERIMENTS.md.
func Default() Config {
	return Config{
		Margins:   []float64{1, 1.5, 2, 2.5, 3},
		Params:    oblivious.Params{Samples: 6, OptIters: 500, AdvIters: 5, Eps: 0.15, Seed: 1},
		Oblivious: true,
	}
}

// Quick is a reduced configuration for benchmarks and smoke tests.
func Quick() Config {
	return Config{
		Margins: []float64{1, 2},
		Params:  oblivious.Params{Samples: 3, OptIters: 120, AdvIters: 2, Eps: 0.2, Seed: 1},
	}
}
