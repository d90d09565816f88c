package scen

import (
	"testing"

	"github.com/coyote-te/coyote/internal/graph"
)

func TestSingleLinkFailures(t *testing.T) {
	g := testGraph(t) // ring n=8 + 2 chords = 10 links
	sets := SingleLinkFailures(g)
	if len(sets) != len(g.Links()) {
		t.Fatalf("%d sets, want %d", len(sets), len(g.Links()))
	}
	for _, s := range sets {
		if len(s.Links) != 1 || s.Name == "" {
			t.Errorf("bad set %+v", s)
		}
	}
}

func TestSRLGPartitionCoversEveryLinkOnce(t *testing.T) {
	g := testGraph(t)
	sets := SRLGPartition(g, 3, 7)
	count := map[graph.EdgeID]int{}
	for _, s := range sets {
		if len(s.Links) == 0 {
			t.Errorf("empty group %q survived", s.Name)
		}
		for _, id := range s.Links {
			count[id]++
		}
	}
	for _, id := range g.Links() {
		if count[id] != 1 {
			t.Errorf("link %d appears %d times, want exactly once", id, count[id])
		}
	}
	// Deterministic in seed; a different seed may regroup.
	again := SRLGPartition(g, 3, 7)
	if len(again) != len(sets) {
		t.Fatal("partition differs across runs")
	}
	for i := range sets {
		if len(sets[i].Links) != len(again[i].Links) {
			t.Fatalf("group %d differs across runs", i)
		}
	}
	// Degenerate group counts clamp instead of failing.
	if got := SRLGPartition(g, 0, 7); len(got) != 1 {
		t.Errorf("groups=0 should clamp to one group, got %d", len(got))
	}
}
