// Package wcmp approximates COYOTE's arbitrary traffic-splitting ratios
// with the equal-split ECMP mechanism by replicating next-hops through
// virtual links, the technique of Németh et al. [18] that §V-D and Fig. 10
// of the paper evaluate: with K additional virtual links per interface a
// next-hop may appear up to K+1 times in the FIB, so a node's realized
// split is m_i/Σm for integer multiplicities m_i ≤ K+1.
package wcmp

import (
	"fmt"
	"math"
	"slices"

	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/pdrouting"
)

// quantize finds integer multiplicities m_i ≤ maxMult approximating the
// given ratios (non-negative, summing to ~1) and writes them into best: it
// minimizes the maximum absolute ratio error over all achievable total sums.
// Ratios below a negligible mass may round to multiplicity zero (the
// next-hop is dropped); at least one multiplicity is always positive (the
// largest ratio). best and cand (scratch) have len(ratios) entries.
func quantize(best, cand []int, ratios []float64, maxMult int) error {
	if maxMult < 1 {
		return fmt.Errorf("wcmp: maxMult %d < 1", maxMult)
	}
	k := len(ratios)
	if k == 0 {
		return nil
	}
	sum := 0.0
	argmax := 0
	for i, r := range ratios {
		if r < -1e-9 {
			return fmt.Errorf("wcmp: negative ratio %g", r)
		}
		sum += r
		if r > ratios[argmax] {
			argmax = i
		}
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("wcmp: ratios sum to %g", sum)
	}
	clear(best)
	best[argmax] = 1
	bestErr := math.Inf(1)
	// Sweep over total FIB entries S; round each ratio to the nearest
	// multiplicity, clamped to [0, maxMult], then repair the total by
	// largest-remainder adjustments.
	for S := 1; S <= k*maxMult; S++ {
		total := 0
		for i, r := range ratios {
			m := int(math.Round(r * float64(S)))
			if m > maxMult {
				m = maxMult
			}
			cand[i] = m
			total += m
		}
		if total == 0 {
			cand[argmax] = 1
			total = 1
		}
		e := maxErr(ratios, cand, total)
		if e < bestErr {
			bestErr = e
			copy(best, cand)
		}
	}
	return nil
}

func maxErr(ratios []float64, m []int, total int) float64 {
	worst := 0.0
	for i, r := range ratios {
		got := float64(m[i]) / float64(total)
		if d := math.Abs(got - r); d > worst {
			worst = d
		}
	}
	return worst
}

// QuantizedRouting holds a routing realized with integer multiplicities.
type QuantizedRouting struct {
	Routing *pdrouting.Routing
	// Mult[t][e] is edge e's FIB multiplicity toward destination t.
	Mult [][]int
	// VirtualLinks counts the additional (fake) next-hop replicas needed:
	// Σ max(m_i − 1, 0) over all (destination, node) FIB entries.
	VirtualLinks int
}

// Apply quantizes every node's splitting ratios in r with at most
// extraPerInterface additional virtual links per interface (multiplicity
// cap extraPerInterface + 1), returning the realizable routing. Fig. 10
// evaluates extraPerInterface ∈ {3, 5, 10}.
func Apply(r *pdrouting.Routing, extraPerInterface int) (*QuantizedRouting, error) {
	if extraPerInterface < 0 {
		return nil, fmt.Errorf("wcmp: negative extraPerInterface %d", extraPerInterface)
	}
	maxMult := extraPerInterface + 1
	g := r.G
	m := g.NumEdges()
	out := &QuantizedRouting{
		Routing: pdrouting.NewZero(g, r.DAGs),
		Mult:    make([][]int, len(r.DAGs)),
	}
	mults := make([]int, len(r.DAGs)*m)
	// One node's ratios and multiplicities, reused across nodes.
	var ratios []float64
	var best, cand []int
	for t := range r.DAGs {
		out.Mult[t] = mults[t*m : (t+1)*m : (t+1)*m]
		d := r.DAGs[t]
		for u := 0; u < g.NumNodes(); u++ {
			if u == t {
				continue
			}
			edges := d.OutEdges(g, graph.NodeID(u))
			if len(edges) == 0 {
				continue
			}
			ratios = ratios[:0]
			sum := 0.0
			for _, id := range edges {
				ratios = append(ratios, r.Phi[t][id])
				sum += r.Phi[t][id]
			}
			if sum <= 0 {
				continue
			}
			for i := range ratios {
				ratios[i] /= sum
			}
			best = slices.Grow(best[:0], len(edges))[:len(edges)]
			cand = slices.Grow(cand[:0], len(edges))[:len(edges)]
			if err := quantize(best, cand, ratios, maxMult); err != nil {
				return nil, fmt.Errorf("wcmp: node %d toward %d: %w", u, t, err)
			}
			total := 0
			for _, x := range best {
				total += x
			}
			for i, id := range edges {
				out.Mult[t][id] = best[i]
				out.Routing.Phi[t][id] = float64(best[i]) / float64(total)
				if best[i] > 1 {
					out.VirtualLinks += best[i] - 1
				}
			}
		}
	}
	return out, nil
}
