// Package localsearch implements the local-search DAG-generation heuristic
// of §V-B and Appendix A (Algorithm 1): a Fortz–Thorup-style tabu search
// over OSPF link weights that accumulates "critical" worst-case demand
// matrices and myopically adjusts single link weights to reduce the
// worst-case ECMP link utilization over the accumulated set.
//
// Per the paper's adaptation: (i) the objective is maximum link utilization
// (not the Fortz–Thorup Φ cost), (ii) multiple demand matrices combine by
// maximum (not average), and (iii) the move neighbourhood is tuned for the
// oblivious setting.
package localsearch

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/obs"
)

// ErrInvalidInput is the typed error (wrapped with detail) Optimize returns
// when the graph cannot support a weight search: fewer than two nodes, no
// edges (the move neighbourhood would be empty and rng.Intn(0) panics), or
// an edge whose capacity is not positive and finite (the INVERSECAPACITY
// initialization maxCap/c_e would produce an Inf or NaN weight, poisoning
// every subsequent SPF).
var ErrInvalidInput = errors.New("localsearch: invalid input")

// Config tunes the search.
type Config struct {
	OuterIters int // worst-case-DM accumulation rounds (default 4)
	InnerMoves int // weight moves examined per round (default 40)
	Seed       int64
}

// tabuTenure is the number of rounds a changed link stays tabu.
const tabuTenure = 5

// moveFactors are the weight multipliers a move draws from.
var moveFactors = [...]float64{0.5, 2, 4, 0.25}

// Deterministic search work counts (DESIGN.md §12), added once per Optimize
// after the search loop.
var (
	mMoves = obs.Default.NewCounter("coyote_localsearch_moves_total",
		"Single-weight moves evaluated by the weight search.")
	mRebuilds = obs.Default.NewCounter("coyote_localsearch_dest_rebuilds_total",
		"Destinations whose shortest-path rows an evaluated move rebuilt.")
)

func (c Config) withDefaults() Config {
	if c.OuterIters <= 0 {
		c.OuterIters = 4
	}
	if c.InnerMoves <= 0 {
		c.InnerMoves = 40
	}
	return c
}

// Result reports the outcome of the search.
type Result struct {
	Weights     []float64        // optimized per-edge weights
	WorstUtil   float64          // worst ECMP utilization over the whole box (not only CriticalDMs) under Weights
	CriticalDMs []*demand.Matrix // the accumulated demand set D of Algorithm 1
	Rounds      int
}

// InverseCapacityWeights returns the Cisco-recommended INVERSECAPACITY
// weight assignment the paper cites [16], scaled into a sane integer-ish
// range: w_e = max(1, round(maxCap/c_e)).
func InverseCapacityWeights(g *graph.Graph) []float64 {
	maxCap := 0.0
	for _, e := range g.Edges() {
		if e.Capacity > maxCap {
			maxCap = e.Capacity
		}
	}
	w := make([]float64, g.NumEdges())
	for _, e := range g.Edges() {
		w[e.ID] = math.Max(1, math.Round(maxCap/e.Capacity))
	}
	return w
}

// Optimize runs Algorithm 1 against the uncertainty box and returns
// optimized link weights. The input graph's weights are left untouched;
// INVERSECAPACITY initialization follows the Cisco-recommended default the
// paper cites [16]. Degenerate inputs (single-node or edgeless graphs,
// non-positive or infinite capacities, a box of mismatched dimension)
// return an error wrapping ErrInvalidInput instead of panicking mid-search.
func Optimize(g *graph.Graph, box *demand.Box, cfg Config) (*Result, error) {
	if err := validate(g, box); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	work := g.Clone()
	// Line 4: w ← INVERSECAPACITY(c).
	work.SetWeights(InverseCapacityWeights(g))

	var critical []*demand.Matrix
	tabu := make([]int, work.NumEdges()) // round until which a changed link stays put
	res := &Result{}
	ev := newEvaluator(work)

	for round := 0; round < cfg.OuterIters; round++ {
		res.Rounds++
		// Line 6: shortest-path DAGs for current weights; line 7: add the
		// worst-case DM for ECMP on those DAGs.
		if dm, _ := ev.worstCaseDM(box); dm != nil {
			grown, err := appendIfNew(critical, dm)
			if err != nil {
				return nil, err
			}
			if len(grown) > len(critical) {
				ev.addMatrix(dm)
			}
			critical = grown
		}
		// Line 10: FORTZTHORUP — tabu-restricted single-weight moves that
		// reduce the max utilization over the critical set.
		cur := ev.value()
		improved := false
		for move := 0; move < cfg.InnerMoves; move++ {
			eid := graph.EdgeID(rng.Intn(work.NumEdges()))
			if tabu[eid] > round {
				continue
			}
			old := work.Edge(eid).Weight
			next := math.Max(1, math.Round(old*moveFactors[rng.Intn(len(moveFactors))]))
			if next == old {
				next = old + 1
			}
			if cand := ev.try(eid, next); cand < cur-1e-12 {
				ev.commit()
				cur = cand
				tabu[eid] = round + tabuTenure
				improved = true
			} else {
				ev.revert()
			}
		}
		if !improved && round > 0 {
			break
		}
	}
	mMoves.Add(ev.moves)
	mRebuilds.Add(ev.rebuilds)
	res.Weights = work.Weights()
	res.CriticalDMs = critical
	// Final utilization under the final weights.
	_, res.WorstUtil = ev.worstCaseDM(box)
	return res, nil
}

// Reweight runs the search at rounds outer rounds of 10·|E| moves each —
// the neighbourhood the portfolio strategies and the weight-search pipeline
// use — and returns a copy of g carrying the tuned weights, with the
// search's result.
func Reweight(g *graph.Graph, box *demand.Box, rounds int, seed int64) (*graph.Graph, *Result, error) {
	ls, err := Optimize(g, box, Config{OuterIters: rounds, InnerMoves: 10 * g.NumEdges(), Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	tuned := g.Clone()
	tuned.SetWeights(ls.Weights)
	return tuned, ls, nil
}

// validate rejects inputs the search cannot run on, wrapping
// ErrInvalidInput with the specific violation.
func validate(g *graph.Graph, box *demand.Box) error {
	if g.NumNodes() < 2 {
		return fmt.Errorf("%w: graph has %d node(s), need at least 2", ErrInvalidInput, g.NumNodes())
	}
	if g.NumEdges() == 0 {
		return fmt.Errorf("%w: graph has no edges", ErrInvalidInput)
	}
	for _, e := range g.Edges() {
		if !(e.Capacity > 0) || math.IsInf(e.Capacity, 1) {
			return fmt.Errorf("%w: edge %d (%d->%d) has capacity %v, need positive and finite",
				ErrInvalidInput, e.ID, e.From, e.To, e.Capacity)
		}
	}
	if box == nil {
		return fmt.Errorf("%w: nil uncertainty box", ErrInvalidInput)
	}
	if n := g.NumNodes(); box.Min.N != n || box.Max.N != n {
		return fmt.Errorf("%w: box is %dx%d over a %d-node graph", ErrInvalidInput, box.Min.N, box.Max.N, n)
	}
	return nil
}

// appendIfNew adds dm to the critical set unless an equal matrix (within
// tolerance) is already present. A dimension mismatch between dm and an
// accumulated matrix is an error: comparing prefixes would silently dedup
// distinct matrices (or index out of range the other way around).
func appendIfNew(set []*demand.Matrix, dm *demand.Matrix) ([]*demand.Matrix, error) {
	for _, old := range set {
		if len(old.D) != len(dm.D) {
			return nil, fmt.Errorf("%w: critical-set matrix has %d entries, candidate has %d",
				ErrInvalidInput, len(old.D), len(dm.D))
		}
		same := true
		for i := range old.D {
			if math.Abs(old.D[i]-dm.D[i]) > 1e-12 {
				same = false
				break
			}
		}
		if same {
			return set, nil
		}
	}
	return append(set, dm), nil
}
