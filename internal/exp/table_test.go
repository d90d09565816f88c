package exp

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestTableWriteMatrix drives WriteTo, WriteJSON, and WriteJSONLine over
// the degenerate-shape matrix: empty tables, nil slices, ragged rows
// (shorter and longer than the header), and rows with empty cells. Every
// combination must render without panicking, and the JSON forms must stay
// well-formed (decodable, no nulls for columns/rows).
func TestTableWriteMatrix(t *testing.T) {
	cases := []struct {
		name    string
		tab     Table
		text    []string // substrings the text rendering must contain
		aligned bool     // every cell is distinct and non-empty: check column offsets
	}{
		{name: "zero table", tab: Table{}},
		{name: "title only", tab: Table{Title: "empty sweep"}, text: []string{"empty sweep"}},
		{
			name: "columns no rows",
			tab:  Table{Title: "t", Columns: []string{"margin", "PERF"}},
			text: []string{"margin  PERF", "------  ----"},
		},
		{
			name: "rows no columns",
			tab:  Table{Title: "t", Rows: [][]string{{"1.0", "2.00"}}},
			text: []string{"1.0  2.00"},
		},
		{
			name: "nil row",
			tab:  Table{Title: "t", Columns: []string{"a"}, Rows: [][]string{nil, {"x"}}},
			text: []string{"x"},
		},
		{
			name: "empty row",
			tab:  Table{Title: "t", Columns: []string{"a"}, Rows: [][]string{{}}},
		},
		{
			name: "short row",
			tab:  Table{Title: "t", Columns: []string{"a", "b", "c"}, Rows: [][]string{{"1"}}},
			text: []string{"a  b  c", "1"},
		},
		{
			name: "long row",
			tab:  Table{Title: "t", Columns: []string{"a"}, Rows: [][]string{{"1", "2", "3"}}},
			text: []string{"1  2  3"},
		},
		{
			name: "mixed ragged",
			tab: Table{Title: "t", Columns: []string{"a", "b"},
				Rows: [][]string{{"1"}, {"1", "2", "3", "4"}, {}, {"x", "y"}}},
			text: []string{"1  2  3  4", "x  y"},
		},
		{
			name: "empty cells widen nothing",
			tab:  Table{Title: "t", Columns: []string{"", ""}, Rows: [][]string{{"", ""}}},
		},
		{
			name: "cells wider than header",
			tab:  Table{Title: "t", Columns: []string{"a"}, Rows: [][]string{{"longer-cell"}}},
			text: []string{"longer-cell", "-----------"},
		},
		{
			name: "multibyte cells",
			tab: Table{Title: "t", Columns: []string{"failed link", "COYOTE", "ECMP"},
				Rows: [][]string{{"NSF-00–NSF-01", "1.50", "2.00"}, {"(none)", "1.25", "1.75"}}},
			aligned: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var text bytes.Buffer
			if _, err := tc.tab.WriteTo(&text); err != nil {
				t.Fatalf("WriteTo: %v", err)
			}
			if !strings.HasSuffix(text.String(), "\n") {
				t.Errorf("WriteTo output does not end in newline: %q", text.String())
			}
			for _, want := range tc.text {
				if !strings.Contains(text.String(), want) {
					t.Errorf("WriteTo output missing %q:\n%s", want, text.String())
				}
			}
			if tc.aligned {
				checkAligned(t, &tc.tab, text.String())
			}

			for _, form := range []struct {
				name  string
				write func(*Table, *bytes.Buffer) error
			}{
				{"WriteJSON", func(tab *Table, b *bytes.Buffer) error { return tab.WriteJSON(b) }},
				{"WriteJSONLine", func(tab *Table, b *bytes.Buffer) error { return tab.WriteJSONLine(b) }},
			} {
				var buf bytes.Buffer
				if err := form.write(&tc.tab, &buf); err != nil {
					t.Fatalf("%s: %v", form.name, err)
				}
				if strings.Contains(buf.String(), "null") {
					t.Errorf("%s emitted null: %s", form.name, buf.String())
				}
				var back Table
				if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
					t.Fatalf("%s produced undecodable JSON: %v\n%s", form.name, err, buf.String())
				}
				if len(back.Columns) != len(tc.tab.Columns) || len(back.Rows) != len(tc.tab.Rows) {
					t.Errorf("%s round-trip changed shape: %d cols %d rows -> %d cols %d rows",
						form.name, len(tc.tab.Columns), len(tc.tab.Rows), len(back.Columns), len(back.Rows))
				}
			}

			var line bytes.Buffer
			if err := tc.tab.WriteJSONLine(&line); err != nil {
				t.Fatalf("WriteJSONLine: %v", err)
			}
			if n := strings.Count(line.String(), "\n"); n != 1 || !strings.HasSuffix(line.String(), "\n") {
				t.Errorf("WriteJSONLine is not one line: %d newlines in %q", n, line.String())
			}
		})
	}
}

// checkAligned asserts that every column starts at the same rune offset in
// the header and in every row, and that the header and every row are
// exactly as many runes wide as the dash rule.
func checkAligned(t *testing.T, tab *Table, text string) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if len(lines) != 3+len(tab.Rows) {
		t.Fatalf("%d lines, want title, header, rule and %d rows:\n%s", len(lines), len(tab.Rows), text)
	}
	header, rule := lines[1], lines[2]
	for i, line := range append([]string{header}, lines[3:]...) {
		if w, r := utf8.RuneCountInString(line), utf8.RuneCountInString(rule); w != r {
			t.Errorf("line %d is %d runes wide, the rule %d:\n%s", i+1, w, r, text)
		}
	}
	offsets := func(line string, cells []string) []int {
		out := make([]int, len(cells))
		for j, c := range cells {
			out[j] = utf8.RuneCountInString(line[:strings.Index(line, c)])
		}
		return out
	}
	want := offsets(header, tab.Columns)
	for i, row := range tab.Rows {
		if got := offsets(lines[3+i], row); !reflect.DeepEqual(got, want) {
			t.Errorf("row %d: columns start at runes %v, header at %v:\n%s", i, got, want, text)
		}
	}
}

// TestTableNormalizeDoesNotMutate pins the copy-on-write contract: writing
// a table with nil rows must not overwrite the caller's slices.
func TestTableNormalizeDoesNotMutate(t *testing.T) {
	tab := Table{Columns: []string{"a"}, Rows: [][]string{nil, {"x"}}}
	var buf bytes.Buffer
	if err := tab.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0] != nil {
		t.Error("WriteJSON mutated the caller's nil row")
	}
}
