package scen

import (
	"fmt"
	"math/rand"
	"sort"

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

// label renders "a–b" for a representative link.
func label(g *graph.Graph, id graph.EdgeID) string {
	e := g.Edge(id)
	return g.Name(e.From) + "–" + g.Name(e.To)
}

// SingleLinkFailures enumerates every single physical-link failure of g,
// in link order — the scenario suite of §VI-A.
func SingleLinkFailures(g *graph.Graph) []FailureSet {
	links := g.Links()
	out := make([]FailureSet, len(links))
	for i, id := range links {
		out[i] = FailureSet{Name: label(g, id), Links: []graph.EdgeID{id}}
	}
	return out
}

// KLinkFailures enumerates every k-subset of physical links as a
// simultaneous failure, in lexicographic link order. The count is C(L, k);
// callers wanting a bounded suite should sample with SampleKLinkFailures
// instead.
func KLinkFailures(g *graph.Graph, k int) ([]FailureSet, error) {
	links := g.Links()
	if k < 1 || k > len(links) {
		return nil, fmt.Errorf("scen: k-link failures need 1 ≤ k ≤ %d, got %d", len(links), k)
	}
	var out []FailureSet
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		set := FailureSet{Links: make([]graph.EdgeID, k)}
		names := make([]string, k)
		for i, j := range idx {
			set.Links[i] = links[j]
			names[i] = label(g, links[j])
		}
		set.Name = joinNames(names)
		out = append(out, set)
		// Next combination.
		i := k - 1
		for i >= 0 && idx[i] == len(links)-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return out, nil
}

// SampleKLinkFailures draws count distinct k-subsets of physical links,
// seeded — the tractable stand-in for KLinkFailures on networks where
// C(L, k) explodes. When the whole space has at most count subsets it is
// enumerated exhaustively instead; otherwise exactly count distinct sets
// are returned (never a silent truncation).
func SampleKLinkFailures(g *graph.Graph, k, count int, seed int64) ([]FailureSet, error) {
	links := g.Links()
	if k < 1 || k > len(links) {
		return nil, fmt.Errorf("scen: k-link failures need 1 ≤ k ≤ %d, got %d", len(links), k)
	}
	if count < 1 {
		return nil, fmt.Errorf("scen: k-link sample count must be positive, got %d", count)
	}
	if binomialAtMost(len(links), k, count) {
		return KLinkFailures(g, k)
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, count)
	var out []FailureSet
	for attempts := 0; len(out) < count; attempts++ {
		if attempts >= 100*count {
			return nil, fmt.Errorf("scen: could not draw %d distinct %d-link sets after %d attempts", count, k, attempts)
		}
		perm := rng.Perm(len(links))[:k]
		sort.Ints(perm)
		key := fmt.Sprint(perm)
		if seen[key] {
			continue
		}
		seen[key] = true
		set := FailureSet{Links: make([]graph.EdgeID, k)}
		names := make([]string, k)
		for i, j := range perm {
			set.Links[i] = links[j]
			names[i] = label(g, links[j])
		}
		set.Name = joinNames(names)
		out = append(out, set)
	}
	return out, nil
}

// binomialAtMost reports whether C(n, k) ≤ limit (overflow-safe: the
// multiplicative formula is cut off as soon as it passes limit).
func binomialAtMost(n, k, limit int) bool {
	if k > n-k {
		k = n - k
	}
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
		if c > limit {
			return false
		}
	}
	return true
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

func joinNames(names []string) string {
	s := names[0]
	for _, n := range names[1:] {
		s += " + " + n
	}
	return s
}
