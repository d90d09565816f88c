package delta

import (
	"fmt"
	"math"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/spf"
	"github.com/coyote-te/coyote/internal/topo"
)

// assertColdDAGs checks that the session's live DAGs are exactly what a
// cold construction over the live topology yields: the same member bits
// and bit-equal distance fields, destination by destination.
func assertColdDAGs(t *testing.T, s *Session, when string) {
	t.Helper()
	g, dags := s.cur.Ev.G, s.cur.Ev.DAGs
	cold := dagx.BuildAll(g, dagx.Augmented)
	if len(dags) != len(cold) {
		t.Fatalf("%s: %d DAGs, cold construction has %d", when, len(dags), len(cold))
	}
	for dst := range cold {
		for e, want := range cold[dst].Member {
			if dags[dst].Member[e] != want {
				t.Fatalf("%s: DAG %d member[%d] = %v, cold %v", when, dst, e, dags[dst].Member[e], want)
			}
		}
		got, want := dags[dst].Dist, cold[dst].Dist
		for u := range want {
			if math.Float64bits(got[u]) != math.Float64bits(want[u]) {
				t.Fatalf("%s: DAG %d dist[%d] = %v, cold %v", when, dst, u, got[u], want[u])
			}
		}
	}
}

// TestSessionIncrementalSPFParity pins the dynamic-SPF safety property
// where it lives: after every step of a mutation sequence — two overlapping
// failures, a demand drift mid-outage, recovery back to the intact
// topology, one more fail/recover — the DAGs the session derived from
// incrementally repaired distance fields equal the cold per-destination
// Dijkstra construction on the live topology, at one worker and at four.
// Everything downstream is a deterministic function of (graph, DAGs, box,
// config), so equal DAGs mean equal results.
func TestSessionIncrementalSPFParity(t *testing.T) {
	g, err := topo.Load("NSF")
	if err != nil {
		t.Fatal(err)
	}
	base := demand.Gravity(g, 1)
	links := g.Links()
	for _, workers := range []int{1, 4} {
		s, err := NewSession(g, demand.MarginBox(base, 2),
			Config{OptIters: 40, AdvIters: 2, Samples: 4, Seed: 11, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		assertColdDAGs(t, s, fmt.Sprintf("workers=%d init", workers))
		steps := []func() (Event, error){
			func() (Event, error) { return s.Fail(links[1]) },
			func() (Event, error) { return s.Fail(links[4]) },
			func() (Event, error) { return s.UpdateBounds(demand.MarginBox(base.Clone().Scale(1.2), 2.2)) },
			func() (Event, error) { return s.Recover(links[1]) },
			func() (Event, error) { return s.Recover(links[4]) },
			func() (Event, error) { return s.Fail(links[0]) },
			func() (Event, error) { return s.Recover(links[0]) },
		}
		for i, step := range steps {
			if _, err := step(); err != nil {
				t.Fatalf("workers=%d step %d: %v", workers, i, err)
			}
			assertColdDAGs(t, s, fmt.Sprintf("workers=%d step %d", workers, i))
		}
	}
}

// TestSessionIncrementalStateTracksFailures checks the dynamic SPF
// structures stay in lockstep with the failed-link set across rejected
// mutations: a partitioning failure must leave them equal to a cold build on
// the intact topology, and a later fail/recover pair must match cold builds
// on the survivor and on the intact topology — which a failed link left
// marked inactive by the rejection would break.
func TestSessionIncrementalStateTracksFailures(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	ab := g.AddLink(a, b, 10, 1)
	bc := g.AddLink(b, c, 10, 1)
	g.AddLink(b, c, 10, 3)
	base := demand.Gravity(g, 1)
	s, err := NewSession(g, demand.MarginBox(base, 2), Config{OptIters: 20, AdvIters: 2, Samples: 2, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Failing a–b partitions the network; the session must reject it and
	// keep the incremental fields equal to the intact topology's.
	if _, err := s.Fail(ab); err == nil {
		t.Fatal("partitioning failure was accepted")
	}
	sameAsCold := func(when string, survivor *graph.Graph) {
		t.Helper()
		for dst, inc := range s.incs {
			cold := spf.ToDestination(survivor, graph.NodeID(dst))
			for u, d := range inc.TreeCopy().Dist {
				if d != cold.Dist[u] {
					t.Fatalf("%s: dist[%d] toward %d = %v, cold Dijkstra %v", when, u, dst, d, cold.Dist[u])
				}
			}
		}
	}
	sameAsCold("after the rejected failure", g)
	if _, err := s.Fail(bc); err != nil {
		t.Fatal(err)
	}
	sameAsCold("after failing b–c", g.WithoutLinks([]graph.EdgeID{bc}))
	if _, err := s.Recover(bc); err != nil {
		t.Fatal(err)
	}
	sameAsCold("after recovering b–c", g)
}
