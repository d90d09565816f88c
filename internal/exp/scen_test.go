package exp

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/scen"
)

func TestSweepGraphRejectsInvalidGraph(t *testing.T) {
	g := graph.New()
	g.AddLink(g.AddNode("a"), g.AddNode("b"), math.Inf(1), 1)
	if _, err := SweepGraph(context.Background(), "inf", g, "gravity", Quick()); err == nil {
		t.Fatal("a link of infinite capacity was swept")
	}
}

func TestSweepGraphRejectsDisconnectedGraph(t *testing.T) {
	g := graph.New()
	g.AddLink(g.AddNode("a"), g.AddNode("b"), 1, 1)
	g.AddLink(g.AddNode("c"), g.AddNode("d"), 1, 1)
	_, err := SweepGraph(context.Background(), "two islands", g, "gravity", Quick())
	if err == nil || !strings.Contains(err.Error(), `"two islands"`) {
		t.Fatalf("disconnected graph: err = %v, want one naming the title", err)
	}
}

// TestSweepGraphRingFile drives the path of coyote-scen sweep -in: a
// generated ring written in the text format, read back from disk, swept.
func TestSweepGraphRingFile(t *testing.T) {
	ring, err := scen.Generate("ring", scen.Params{N: 6, M: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ring6.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ring.WriteText(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := scen.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Quick()
	tab, err := SweepGraph(context.Background(), path, g, "gravity", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(cfg.Margins) {
		t.Fatalf("%d rows, want one per margin (%d)", len(tab.Rows), len(cfg.Margins))
	}
	if got := strings.Join(tab.Columns, ","); got != "margin,ECMP,Base,COYOTE-pk" {
		t.Fatalf("columns %s", got)
	}
	for _, row := range tab.Rows {
		e, err1 := strconv.ParseFloat(row[1], 64)
		p, err2 := strconv.ParseFloat(row[3], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("row %v: unparsable cells", row)
		}
		if p > e {
			t.Errorf("margin %s: COYOTE-pk %g worse than ECMP %g", row[0], p, e)
		}
	}
}
