package oblivious

import (
	"math"
	"slices"
	"sync"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/obs"
)

// Adversary bookkeeping (obs.Default, DESIGN.md §10): what became of every
// deduplicated corner candidate of every PerfTop call, and how many dual
// certificates failed their own soundness check. All are deterministic for a
// fixed input and independent of the worker count.
var (
	mCandidates = obs.Default.NewCounterVec("coyote_oblivious_candidates_total",
		"Adversary corner candidates by outcome: normalization found in the OPTDAG cache, solved, or pruned by a dual-length bound without a solve.",
		"outcome")
	mCandCached = mCandidates.With("cached")
	mCandSolved = mCandidates.With("solved")
	mCandPruned = mCandidates.With("pruned")

	mBoundViolations = obs.Default.NewCounter("coyote_oblivious_bound_violations_total",
		"Dual-length certificates dropped because their bound at their own matrix disagreed with the solve that produced them; expected 0.")
)

const (
	// boundRingSize is how many distance tables an evalCache keeps. The
	// adversary's corners share most of their binding links, so a handful of
	// certificates bounds nearly all of them. Measured at wave 2 (DESIGN.md
	// §2.5; LP solves per cold-geant op / FPTAS solves per scale-ba42 op,
	// exhaustive 206 / 292): 4 tables leave 54 / 52, 8 leave 40 / 49, 16
	// leave 37 / 42, 32 leave 36 / 35 — 16 is where the exact engine's
	// curve flattens, at 16·n² floats per (graph, DAGs).
	boundRingSize = 16
	// boundWave is how many candidates PerfTop solves between re-bounding
	// the rest. It is a constant, never the worker count: which candidates
	// are solved — and so every basis, cache entry and count downstream —
	// must not depend on Workers. Each doubling costs about a tenth more
	// solves (1: 34 / 40, 2: 37 / 42, 4: 41 / 45, 8: 49 / 56) because a
	// wave is bounded by tables older than itself, and a k = 1 call (Perf,
	// the ECMP guarantee) rarely needs more than two. 2 is the narrowest
	// wave that is still a fan-out.
	boundWave = 2
)

// boundRing is the evalCache's store of dual certificates in the form the
// adversary consumes them: for a length vector ℓ ≥ 0 with Σ ℓ_e·c_e = 1, the
// table dist[s·n+t] of in-DAG shortest distances from s to t under ℓ (+Inf
// where s cannot reach t in t's DAG). By weak duality of the min-MLU LP,
// OPTDAG(D) ≥ Σ D_st·dist[s·n+t] for every matrix D (DESIGN.md §2.5). Tables
// are allocated once and overwritten oldest-first.
type boundRing struct {
	mu     sync.RWMutex
	tables [boundRingSize][]float64
	added  uint64    // tables ever added; table i lives in slot i % boundRingSize
	spare  []float64 // the table under construction, swapped into its slot once it passes the guard
}

// add turns the length vector z harvested from the solve OPTDAG(D) = norm
// into a distance table and appends it to the ring, unless the table fails
// the soundness guard at its own matrix: its bound must not exceed norm, and
// for the exact engine — whose certificate is tight there — must reach it.
func (b *boundRing) add(g *graph.Graph, dags []*dagx.DAG, z []float64, D *demand.Matrix, norm float64, exact bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.spare == nil {
		b.spare = make([]float64, g.NumNodes()*g.NumNodes())
	}
	tbl := b.spare
	distTable(g, dags, z, tbl)
	// Negated so a NaN bound fails too.
	if lb := tableBound(tbl, D); !(lb <= norm*(1+1e-7)) || exact && lb < norm*(1-1e-6) {
		mBoundViolations.Inc()
		return
	}
	slot := &b.tables[b.added%boundRingSize]
	b.spare, *slot = *slot, tbl
	b.added++
}

// position is how many tables have ever been added: the since argument that
// makes a later bound call look only at tables added from now on.
func (b *boundRing) position() uint64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.added
}

// bound returns the best lower bound on OPTDAG(D) over the live tables added
// at or after position since (0 for all of them). It is 0 when there is no
// such table and +Inf when D has demand on a pair with no path in the DAGs.
func (b *boundRing) bound(D *demand.Matrix, since uint64) (lb float64) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.added > boundRingSize && since < b.added-boundRingSize {
		since = b.added - boundRingSize
	}
	for i := since; i < b.added; i++ {
		if v := tableBound(b.tables[i%boundRingSize], D); v > lb {
			lb = v
		}
	}
	return lb
}

// live returns copies of the live tables, oldest first.
func (b *boundRing) live() (out [][]float64) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for i := b.added - min(b.added, boundRingSize); i < b.added; i++ {
		out = append(out, slices.Clone(b.tables[i%boundRingSize]))
	}
	return out
}

// distTable fills tbl[s·n+t] with the length of the shortest s→t path within
// t's DAG under the edge lengths z, +Inf where there is none: one reverse
// pass over the topological order per destination, every DAG successor of a
// node being final by the time the node is reached.
func distTable(g *graph.Graph, dags []*dagx.DAG, z, tbl []float64) {
	n := g.NumNodes()
	for i := range tbl {
		tbl[i] = math.Inf(1)
	}
	for t, dag := range dags {
		tbl[t*n+t] = 0
		for i := len(dag.Order) - 1; i >= 0; i-- {
			u := dag.Order[i]
			if int(u) == t {
				continue
			}
			best := math.Inf(1)
			for _, id := range dag.OutEdges(g, u) {
				if d := z[id] + tbl[int(g.Edge(id).To)*n+t]; d < best {
					best = d
				}
			}
			tbl[int(u)*n+t] = best
		}
	}
}

// tableBound is Σ D_st·dist[s·n+t] over the pairs with demand.
func tableBound(tbl []float64, D *demand.Matrix) float64 {
	sum := 0.0
	for i, d := range D.D {
		if d > 0 {
			sum += d * tbl[i]
		}
	}
	return sum
}
