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

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/pdrouting"
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
	WorstUtil   float64          // worst ECMP utilization over the critical set
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
	tabu := make(map[graph.EdgeID]int)
	res := &Result{}

	for round := 0; round < cfg.OuterIters; round++ {
		res.Rounds++
		// Line 6: shortest-path DAGs for current weights; line 7: add the
		// worst-case DM for ECMP on those DAGs.
		dm, _ := worstCaseDM(work, box)
		if dm != nil {
			var err error
			critical, err = appendIfNew(critical, dm)
			if err != nil {
				return nil, err
			}
		}
		// Line 10: FORTZTHORUP — tabu-restricted single-weight moves that
		// reduce the max utilization over the critical set.
		cur := evalWeights(work, critical)
		improved := false
		for move := 0; move < cfg.InnerMoves; move++ {
			eid := graph.EdgeID(rng.Intn(work.NumEdges()))
			if tabu[eid] > round {
				continue
			}
			e := work.Edge(eid)
			old := e.Weight
			factor := []float64{0.5, 2, 4, 0.25}[rng.Intn(4)]
			next := math.Max(1, math.Round(old*factor))
			if next == old {
				next = old + 1
			}
			work.SetLinkWeight(eid, next)
			cand := evalWeights(work, critical)
			if cand < cur-1e-12 {
				cur = cand
				tabu[eid] = round + tabuTenure
				improved = true
			} else {
				work.SetLinkWeight(eid, old)
			}
		}
		if !improved && round > 0 {
			break
		}
	}
	res.Weights = work.Weights()
	res.CriticalDMs = critical
	// Final utilization under the final weights.
	_, res.WorstUtil = worstCaseDM(work, box)
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

// worstCaseDM finds the demand matrix in the box that maximizes ECMP's link
// utilization under the graph's current weights (the WORSTCASEDM
// subroutine). Because link loads are linear in the demands for a fixed
// routing, the maximum sits at a box corner identifiable per link from the
// load-coefficient signs.
func worstCaseDM(g *graph.Graph, box *demand.Box) (*demand.Matrix, float64) {
	dags := dagx.BuildAll(g, dagx.ShortestPath)
	r := pdrouting.Uniform(g, dags)
	n := g.NumNodes()
	coeff := make([][][]float64, n)
	for t := 0; t < n; t++ {
		coeff[t] = r.LoadCoeffs(graph.NodeID(t))
	}
	bestUtil := -1.0
	var bestDM *demand.Matrix
	for e := 0; e < g.NumEdges(); e++ {
		util := 0.0
		ce := g.Edge(graph.EdgeID(e)).Capacity
		for s := 0; s < n; s++ {
			for t := 0; t < n; t++ {
				if s == t {
					continue
				}
				c := coeff[t][s][e]
				if c > 0 {
					util += c * box.Max.At(graph.NodeID(s), graph.NodeID(t))
				}
			}
		}
		util /= ce
		if util > bestUtil {
			bestUtil = util
			bestDM = box.Corner(func(s, t graph.NodeID) bool { return coeff[t][s][e] > 0 })
		}
	}
	return bestDM, bestUtil
}

// evalWeights computes the worst ECMP utilization over the critical demand
// set under the graph's current weights.
func evalWeights(g *graph.Graph, critical []*demand.Matrix) float64 {
	if len(critical) == 0 {
		return 0
	}
	dags := dagx.BuildAll(g, dagx.ShortestPath)
	r := pdrouting.Uniform(g, dags)
	worst := 0.0
	for _, dm := range critical {
		if u := r.MaxUtilization(dm); u > worst {
			worst = u
		}
	}
	return worst
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
