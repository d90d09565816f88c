package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteJSONL writes results as the canonical JSONL stream: one compact
// line per unit, in the order given.
func WriteJSONL(w io.Writer, results []Result) error {
	bw := bufio.NewWriter(w)
	for _, r := range results {
		line, err := r.MarshalLine()
		if err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL result stream, rejecting a unit named twice: Diff
// keys results by unit, so a second copy would hide the first from it.
func ReadJSONL(r io.Reader) ([]Result, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var out []Result
	seen := map[string]int{} // unit -> line
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var res Result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			return nil, fmt.Errorf("sweep: jsonl line %d: %w", lineno, err)
		}
		if res.Unit == "" || res.Table == nil {
			return nil, fmt.Errorf("sweep: jsonl line %d: missing unit or table", lineno)
		}
		if first, dup := seen[res.Unit]; dup {
			return nil, fmt.Errorf("sweep: jsonl line %d: unit %q already on line %d", lineno, res.Unit, first)
		}
		seen[res.Unit] = lineno
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// MergeResults reunites shard outputs into the canonical campaign order
// (sorted by unit ID — the order a 1-shard run emits), rejecting duplicate
// units. Serializing the merge of any shard partition of a campaign
// therefore yields byte-identical JSONL regardless of the shard count.
func MergeResults(shards ...[]Result) ([]Result, error) {
	var all []Result
	for _, s := range shards {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Unit < all[j].Unit })
	for i := 1; i < len(all); i++ {
		if all[i].Unit == all[i-1].Unit {
			return nil, fmt.Errorf("sweep: merge: unit %q appears in more than one shard", all[i].Unit)
		}
	}
	return all, nil
}

// Drift is one divergence between two result sets.
type Drift struct {
	Unit  string `json:"unit"`
	Field string `json:"field"` // "missing", "extra", "title", "columns", or "row R col C"
	A     string `json:"a"`
	B     string `json:"b"`
}

func (d Drift) String() string {
	return fmt.Sprintf("%s: %s: %q != %q", d.Unit, d.Field, d.A, d.B)
}

// Diff compares two result sets unit by unit and cell by cell. Numeric
// cells compare within tol (0 demands exactness, the golden-corpus
// policy); everything else compares as strings. The returned drifts are
// sorted by unit then field.
func Diff(a, b []Result, tol float64) []Drift {
	am, bm := index(a), index(b)
	var drifts []Drift
	for unit, ra := range am {
		rb, ok := bm[unit]
		if !ok {
			drifts = append(drifts, Drift{Unit: unit, Field: "missing", A: "present", B: "absent"})
			continue
		}
		drifts = append(drifts, diffTables(unit, ra, rb, tol)...)
	}
	for unit := range bm {
		if _, ok := am[unit]; !ok {
			drifts = append(drifts, Drift{Unit: unit, Field: "extra", A: "absent", B: "present"})
		}
	}
	sort.Slice(drifts, func(i, j int) bool {
		if drifts[i].Unit != drifts[j].Unit {
			return drifts[i].Unit < drifts[j].Unit
		}
		return drifts[i].Field < drifts[j].Field
	})
	return drifts
}

func index(results []Result) map[string]Result {
	m := make(map[string]Result, len(results))
	for _, r := range results {
		m[r.Unit] = r
	}
	return m
}

func diffTables(unit string, a, b Result, tol float64) []Drift {
	var drifts []Drift
	if a.Table.Title != b.Table.Title {
		drifts = append(drifts, Drift{Unit: unit, Field: "title", A: a.Table.Title, B: b.Table.Title})
	}
	if ca, cb := strings.Join(a.Table.Columns, "|"), strings.Join(b.Table.Columns, "|"); ca != cb {
		drifts = append(drifts, Drift{Unit: unit, Field: "columns", A: ca, B: cb})
	}
	if la, lb := len(a.Table.Rows), len(b.Table.Rows); la != lb {
		drifts = append(drifts, Drift{Unit: unit, Field: "rows", A: strconv.Itoa(la), B: strconv.Itoa(lb)})
		return drifts
	}
	for r := range a.Table.Rows {
		ra, rb := a.Table.Rows[r], b.Table.Rows[r]
		if len(ra) != len(rb) {
			drifts = append(drifts, Drift{
				Unit: unit, Field: fmt.Sprintf("row %d", r),
				A: strconv.Itoa(len(ra)) + " cells", B: strconv.Itoa(len(rb)) + " cells",
			})
			continue
		}
		for col := range ra {
			if cellsEqual(ra[col], rb[col], tol) {
				continue
			}
			drifts = append(drifts, Drift{
				Unit: unit, Field: fmt.Sprintf("row %d col %d", r, col),
				A: ra[col], B: rb[col],
			})
		}
	}
	return drifts
}

func cellsEqual(a, b string, tol float64) bool {
	if a == b {
		return true
	}
	if tol <= 0 {
		return false
	}
	fa, errA := strconv.ParseFloat(a, 64)
	fb, errB := strconv.ParseFloat(b, 64)
	if errA != nil || errB != nil {
		return false
	}
	d := fa - fb
	if d < 0 {
		d = -d
	}
	return d <= tol
}
