package exp

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/topo"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "demo", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "a  bb") {
		t.Fatalf("bad rendering:\n%s", s)
	}
}

func TestTableWriteJSON(t *testing.T) {
	tab := &Table{Title: "demo", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	var buf bytes.Buffer
	if err := tab.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Table
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded.Title != "demo" || len(decoded.Columns) != 2 || len(decoded.Rows) != 1 {
		t.Fatalf("round trip lost data: %+v", decoded)
	}
	if !strings.Contains(buf.String(), `"title"`) {
		t.Fatalf("expected lowercase JSON keys:\n%s", buf.String())
	}
}

func TestServeDriftSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drift replay in -short mode")
	}
	cfg := Quick()
	tab, err := serveDrift(scen.Params{Rows: 3, Cols: 3}, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		warm := cell(t, tab, i, 1)
		cold := cell(t, tab, i, 2)
		// Warm incremental recompute must stay within a few percent of the
		// cold batch recompute on the same box (acceptance bound is 1% at
		// full effort; quick effort gets slack).
		if warm > cold*1.05 {
			t.Errorf("step %s: warm PERF %g much worse than cold %g", row[0], warm, cold)
		}
	}
}

func TestRegistryIDs(t *testing.T) {
	want := []string{"ablation-adv", "ablation-dag", "failover", "fig10", "fig11", "fig12", "fig6", "fig7", "fig8", "fig9", "negative-np", "negative-path", "portfolio", "portfolio-failures", "running", "scen-ba", "scen-fattree", "scen-grid-day", "scen-srlg", "scen-waxman", "serve-drift", "table1"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	if _, err := Run("nope", Quick()); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestRunningExampleAnchors(t *testing.T) {
	tab, err := runningExample(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(tab.Rows))
	}
	// ECMP = 2.00, Fig1c = 1.33, golden = 1.24 (√5−1).
	if v := cell(t, tab, 0, 1); math.Abs(v-2.0) > 0.02 {
		t.Errorf("ECMP PERF = %g, want 2.00", v)
	}
	if v := cell(t, tab, 1, 1); math.Abs(v-4.0/3) > 0.02 {
		t.Errorf("Fig1c PERF = %g, want 1.33", v)
	}
	if v := cell(t, tab, 2, 1); math.Abs(v-(math.Sqrt(5)-1)) > 0.02 {
		t.Errorf("golden PERF = %g, want 1.24", v)
	}
	// The optimizer should not be (much) worse than the hand-crafted 4/3.
	if v := cell(t, tab, 3, 1); v > 4.0/3+0.05 {
		t.Errorf("optimizer PERF = %g, want ≤ ~1.33", v)
	}
}

func TestNPGadgetTable(t *testing.T) {
	tab, err := npGadget([]float64{3, 5, 8}, map[int]bool{2: true})
	if err != nil {
		t.Fatal(err)
	}
	// Balanced: both extreme DMs at exactly 4/3.
	if v := cell(t, tab, 0, 1); math.Abs(v-4.0/3) > 0.01 {
		t.Errorf("balanced MxLU(D1) = %g, want 4/3", v)
	}
	if v := cell(t, tab, 0, 2); math.Abs(v-4.0/3) > 0.01 {
		t.Errorf("balanced MxLU(D2) = %g, want 4/3", v)
	}
	// Unbalanced: strictly worse oblivious ratio.
	balanced := cell(t, tab, 0, 3)
	unbalanced := cell(t, tab, 1, 3)
	if unbalanced <= balanced {
		t.Errorf("unbalanced ratio %g should exceed balanced %g", unbalanced, balanced)
	}
	// Min-cut = 2·SUM = 32.
	if v := cell(t, tab, 0, 4); math.Abs(v-32) > 1e-6 {
		t.Errorf("min-cut = %g, want 32", v)
	}
}

func TestPathLowerBoundTable(t *testing.T) {
	n := 5
	tab, err := pathLowerBound(n)
	if err != nil {
		t.Fatal(err)
	}
	worst := cell(t, tab, len(tab.Rows)-1, 3)
	if worst < float64(n) {
		t.Errorf("worst ratio %g below the Theorem 4 bound %d", worst, n)
	}
}

func TestFig12Table(t *testing.T) {
	tab, err := fig12(Quick())
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"TE1", "50%", "0%", "50%", "33%", "0"},
		{"TE2", "50%", "25%", "0%", "25%", "0"},
		{"COYOTE", "0%", "0%", "0%", "0%", "2"},
	}
	if len(tab.Rows) != len(want) {
		t.Fatalf("%d schemes, want %d", len(tab.Rows), len(want))
	}
	for i, row := range want {
		if got := strings.Join(tab.Rows[i], " "); got != strings.Join(row, " ") {
			t.Errorf("row %d = %q, want %q", i, got, strings.Join(row, " "))
		}
	}
}

// TestFailoverTable pins every cell of the failover experiment at Quick():
// the normal row, one row per NSF link in g.Links() order and the worst
// row. The table is not in the golden corpus.
func TestFailoverTable(t *testing.T) {
	tab, err := failoverTable(Quick())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"(none) 2.13  normal",
		"NSF-00–NSF-01 1.72 1.94 ok",
		"NSF-01–NSF-02 2.01 2.50 ok",
		"NSF-02–NSF-03 1.80 2.35 ok",
		"NSF-03–NSF-04 1.81 2.45 ok",
		"NSF-04–NSF-05 2.28 2.45 ok",
		"NSF-05–NSF-06 1.84 2.29 ok",
		"NSF-06–NSF-07 1.96 2.30 ok",
		"NSF-07–NSF-08 2.19 2.68 ok",
		"NSF-08–NSF-09 2.18 2.56 ok",
		"NSF-09–NSF-10 2.15 2.21 ok",
		"NSF-10–NSF-11 1.72 1.99 ok",
		"NSF-11–NSF-12 2.13 2.52 ok",
		"NSF-12–NSF-13 2.03 2.70 ok",
		"NSF-13–NSF-00 1.96 2.15 ok",
		"NSF-09–NSF-01 1.92 2.11 ok",
		"NSF-12–NSF-06 1.77 2.16 ok",
		"NSF-02–NSF-06 1.97 2.71 ok",
		"NSF-11–NSF-13 2.00 2.53 ok",
		"NSF-04–NSF-10 1.68 2.12 ok",
		"NSF-09–NSF-06 2.33 2.37 ok",
		"NSF-09–NSF-07 2.11 2.60 ok",
		"worst: NSF-09–NSF-06 2.33 2.37 ",
	}
	if len(tab.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(tab.Rows), len(want))
	}
	for i, row := range want {
		if got := strings.Join(tab.Rows[i], " "); got != row {
			t.Errorf("row %d = %q, want %q", i, got, row)
		}
	}
}

// TestFluidDropsGuard: a lone overloaded link drops its excess; two
// overloaded links in series are refused, since the first would thin what
// reaches the second.
func TestFluidDropsGuard(t *testing.T) {
	g := graph.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	ab := g.AddEdge(a, b, 1, 1)
	bc := g.AddEdge(b, c, 1, 1)
	loads := make([]float64, g.NumEdges())
	loads[ab], loads[bc] = 3, 0.5
	if got, err := fluidDrops(g, loads); err != nil || got != 2 {
		t.Fatalf("one overloaded link: dropped %g, err %v; want 2, nil", got, err)
	}
	loads[bc] = 2
	if _, err := fluidDrops(g, loads); err == nil {
		t.Fatal("two overloaded links in series: no error")
	}
}

func TestMarginSweepSmallTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	cfg := Quick()
	cfg.Oblivious = true
	g, err := topo.Load("NSF")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := SweepGraph("NSF", g, "gravity", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(tab.Columns, ","); got != "margin,ECMP,Base,COYOTE-obl,COYOTE-pk" {
		t.Fatalf("columns %s", got)
	}
	if len(tab.Rows) != len(cfg.Margins) {
		t.Fatalf("%d rows, want %d", len(tab.Rows), len(cfg.Margins))
	}
	for i, row := range tab.Rows {
		ecmp, pk := cell(t, tab, i, 1), cell(t, tab, i, 4)
		// The partial-knowledge COYOTE is never worse than ECMP (both
		// evaluated with the same adversary).
		if pk > ecmp {
			t.Errorf("margin %s: COYOTE-pk %g worse than ECMP %g", row[0], pk, ecmp)
		}
		if ecmp < 1-0.05 || pk < 1-0.05 {
			t.Errorf("margin %s: PERF below 1: ECMP %g, pk %g", row[0], ecmp, pk)
		}
	}
	// At margin 1 the Base routing is optimal.
	if base := cell(t, tab, 0, 2); math.Abs(base-1) > 0.05 {
		t.Errorf("Base at margin 1 = %g, want 1", base)
	}
}

// TestTable1IsSweepGraphPerNetwork: table1's columns are "network" and
// SweepGraph's, and its rows are SweepGraph's with the network prefixed —
// so COYOTE-obl appears exactly when cfg.Oblivious computes it.
func TestTable1IsSweepGraphPerNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps in -short mode")
	}
	g, err := topo.Load("Abilene")
	if err != nil {
		t.Fatal(err)
	}
	for _, oblivious := range []bool{false, true} {
		cfg := Quick()
		cfg.Oblivious = oblivious
		tab, err := table1(cfg, []string{"Abilene"})
		if err != nil {
			t.Fatal(err)
		}
		sweep, err := SweepGraph("Abilene", g, "gravity", cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := &Table{Title: tab.Title, Columns: append([]string{"network"}, sweep.Columns...)}
		for _, row := range sweep.Rows {
			want.AddRow(append([]string{"Abilene"}, row...)...)
		}
		if !reflect.DeepEqual(tab, want) {
			t.Errorf("Oblivious %v: table1\n%+v\nwant\n%+v", oblivious, tab, want)
		}
	}
}

// TestRegistryShapes runs every registered experiment under Quick() —
// table1 and fig11 on one network through their unexported forms — and
// checks each returns a titled table with at least one row, every row as
// wide as the header.
func TestRegistryShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("every experiment in -short mode")
	}
	one := []string{"Abilene"}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			var tab *Table
			var err error
			switch id {
			case "table1":
				tab, err = table1(Quick(), one)
			case "fig11":
				tab, err = fig11(Quick(), one)
			default:
				tab, err = Run(id, Quick())
			}
			if err != nil {
				t.Fatal(err)
			}
			if tab.Title == "" || len(tab.Rows) == 0 {
				t.Fatalf("title %q, %d rows", tab.Title, len(tab.Rows))
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Errorf("row %d has %d cells, header %d: %v", i, len(row), len(tab.Columns), row)
				}
			}
		})
	}
}

func TestFig12ViaRegistry(t *testing.T) {
	tab, err := Run("fig12", Quick())
	if err != nil {
		t.Fatal(err)
	}
	if tab.Title == "" || len(tab.Rows) == 0 {
		t.Fatal("empty table from registry")
	}
}
