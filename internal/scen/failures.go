package scen

import (
	"fmt"
	"math/rand"

	"github.com/coyote-te/coyote/internal/graph"
)

// FailureSet is one failure scenario: a named group of physical links
// (represented, as everywhere in the repo, by one representative EdgeID
// per bidirectional pair) that fail simultaneously. Single-link failures
// are size-1 sets; shared-risk link groups (SRLGs — links sharing a
// conduit, line card, or site) are larger.
type FailureSet struct {
	Name  string
	Links []graph.EdgeID
}

// SingleLinkFailures enumerates every single physical-link failure of g,
// in link order — the scenario suite of §VI-A.
func SingleLinkFailures(g *graph.Graph) []FailureSet {
	links := g.Links()
	out := make([]FailureSet, len(links))
	for i, id := range links {
		e := g.Edge(id)
		out[i] = FailureSet{Name: g.Name(e.From) + "–" + g.Name(e.To), Links: []graph.EdgeID{id}}
	}
	return out
}

// SRLGPartition groups the physical links into shared-risk link groups.
// Without fiber-conduit data the grouping is synthetic but structured: each
// link joins the group of its lower-ID endpoint modulo groups, so links
// sharing a router tend to share a group (the "line card / site failure"
// pattern), and the partition is deterministic. Seed shuffles which
// endpoint bucket maps to which group.
func SRLGPartition(g *graph.Graph, groups int, seed int64) []FailureSet {
	links := g.Links()
	if groups < 1 {
		groups = 1
	}
	if groups > len(links) {
		groups = len(links)
	}
	bucketOf := rand.New(rand.NewSource(seed)).Perm(g.NumNodes())
	sets := make([]FailureSet, groups)
	for i := range sets {
		sets[i].Name = fmt.Sprintf("srlg-%d", i)
	}
	for _, id := range links {
		e := g.Edge(id)
		n := e.From
		if e.To < n {
			n = e.To
		}
		b := bucketOf[int(n)] % groups
		sets[b].Links = append(sets[b].Links, id)
	}
	// Drop empty groups (possible when groups ~ number of buckets).
	out := sets[:0]
	for _, s := range sets {
		if len(s.Links) > 0 {
			out = append(out, s)
		}
	}
	return out
}
