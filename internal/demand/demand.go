// Package demand models traffic demand matrices and the operator-specified
// uncertainty sets of §III and §VI of the paper.
//
// A demand matrix D assigns a non-negative rate d_st to every ordered node
// pair. Uncertainty is captured by a Box: per-pair intervals
// [dmin_st, dmax_st]; the paper's "uncertainty margin" x around a base
// matrix is Box[d_st/x, x·d_st]. The evaluation also uses the two base
// traffic models of §VI-B: gravity [22] and bimodal [23].
package demand

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/coyote-te/coyote/internal/graph"
)

// Matrix is a dense demand matrix over n nodes, stored row-major: entry
// (s, t) is At(s, t). Diagonal entries are always zero.
type Matrix struct {
	N int
	D []float64
}

// NewMatrix returns a zero demand matrix for n nodes.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, D: make([]float64, n*n)}
}

// At returns d_st.
func (m *Matrix) At(s, t graph.NodeID) float64 { return m.D[int(s)*m.N+int(t)] }

// Set assigns d_st. Setting a diagonal entry or a negative rate panics.
func (m *Matrix) Set(s, t graph.NodeID, d float64) {
	if s == t {
		panic("demand: diagonal demand entry")
	}
	if d < 0 || math.IsNaN(d) {
		panic(fmt.Sprintf("demand: negative demand %v", d))
	}
	m.D[int(s)*m.N+int(t)] = d
}

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{N: m.N, D: append([]float64(nil), m.D...)}
}

// Scale multiplies every entry by k and returns the receiver.
func (m *Matrix) Scale(k float64) *Matrix {
	for i := range m.D {
		m.D[i] *= k
	}
	return m
}

// Total returns the sum of all demands.
func (m *Matrix) Total() float64 {
	s := 0.0
	for _, d := range m.D {
		s += d
	}
	return s
}

// MaxEntry returns the largest demand.
func (m *Matrix) MaxEntry() float64 {
	mx := 0.0
	for _, d := range m.D {
		if d > mx {
			mx = d
		}
	}
	return mx
}

// Pairs invokes fn for every pair with positive demand.
func (m *Matrix) Pairs(fn func(s, t graph.NodeID, d float64)) {
	for s := 0; s < m.N; s++ {
		for t := 0; t < m.N; t++ {
			if d := m.D[s*m.N+t]; d > 0 {
				fn(graph.NodeID(s), graph.NodeID(t), d)
			}
		}
	}
}

// ToDestination returns the per-source demand vector toward destination t
// (a column of the matrix).
func (m *Matrix) ToDestination(t graph.NodeID) []float64 {
	out := make([]float64, m.N)
	for s := 0; s < m.N; s++ {
		out[s] = m.D[s*m.N+int(t)]
	}
	return out
}

// Box is a per-pair interval uncertainty set: every matrix D with
// Min.At(s,t) ≤ d_st ≤ Max.At(s,t) for all pairs belongs to the set.
type Box struct {
	Min, Max *Matrix
}

// crossTol is how far a lower bound may exceed its upper bound before the
// box counts as crossed (rounding slack of scaled bounds).
const crossTol = 1e-15

// NewBox builds a box from explicit bounds. It panics if the bounds cross.
func NewBox(min, max *Matrix) *Box {
	if min.N != max.N {
		panic("demand: box dimension mismatch")
	}
	for i := range min.D {
		if min.D[i] > max.D[i]+crossTol {
			panic("demand: box lower bound exceeds upper bound")
		}
	}
	return &Box{Min: min, Max: max}
}

// BoxError is the error Check returns for an uncertainty set no COYOTE
// solve can work with (test with errors.As).
type BoxError struct{ Reason string }

func (e *BoxError) Error() string { return "demand: invalid uncertainty bounds: " + e.Reason }

// Check is the one input gate of the COYOTE solve (DESIGN.md §1): it
// reports whether the box is usable over a topology of n nodes — both
// bounds n×n, every entry finite and non-negative, no lower bound above its
// upper bound, and some demand to normalize against (an all-zero box has no
// performance ratio). A nil box fails.
func (b *Box) Check(n int) error {
	if b == nil || b.Min == nil || b.Max == nil {
		return &BoxError{"nil bounds"}
	}
	for _, m := range []*Matrix{b.Min, b.Max} {
		if m.N != n || len(m.D) != n*n {
			return &BoxError{fmt.Sprintf("bounds are %d×%d but the topology has %d nodes", m.N, m.N, n)}
		}
	}
	for i, lo := range b.Min.D {
		hi := b.Max.D[i]
		if !(lo >= 0 && hi >= 0) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return &BoxError{fmt.Sprintf("entry (%d,%d) = [%v, %v] is not finite and non-negative", i/n, i%n, lo, hi)}
		}
		if lo > hi+crossTol {
			return &BoxError{fmt.Sprintf("entry (%d,%d): lower bound %v exceeds upper bound %v", i/n, i%n, lo, hi)}
		}
	}
	if b.Max.Total() <= 0 {
		return &BoxError{"every upper bound is zero"}
	}
	return nil
}

// MarginBox builds the paper's uncertainty set around a base matrix: each
// d_st may range in [base/margin, base·margin]. Margin must be ≥ 1.
func MarginBox(base *Matrix, margin float64) *Box {
	if margin < 1 {
		panic(fmt.Sprintf("demand: margin %v < 1", margin))
	}
	min := base.Clone().Scale(1 / margin)
	max := base.Clone().Scale(margin)
	return &Box{Min: min, Max: max}
}

// ObliviousBox builds the "no knowledge whatsoever" set used by
// COYOTE-oblivious: every pair may send anywhere between 0 and cap. A
// finite cap stands in for the unbounded set; the performance ratio is
// invariant to demand rescaling (§III), so any positive cap yields the same
// optimization landscape.
func ObliviousBox(n int, cap float64) *Box {
	min := NewMatrix(n)
	max := NewMatrix(n)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s != t {
				max.D[s*n+t] = cap
			}
		}
	}
	return &Box{Min: min, Max: max}
}

// Contains reports whether D lies inside the box (within tolerance).
func (b *Box) Contains(d *Matrix) bool {
	for i := range d.D {
		if d.D[i] < b.Min.D[i]-1e-9 || d.D[i] > b.Max.D[i]+1e-9 {
			return false
		}
	}
	return true
}

// Midpoint returns the box's entry-wise geometric midpoint √(min·max) —
// the base matrix of a margin box.
func (b *Box) Midpoint() *Matrix {
	mid := NewMatrix(b.Min.N)
	for i := range mid.D {
		mid.D[i] = math.Sqrt(b.Min.D[i] * b.Max.D[i])
	}
	return mid
}

// Corner materializes the box corner selected by pick: entry (s,t) takes
// Max if pick(s,t) is true, Min otherwise.
func (b *Box) Corner(pick func(s, t graph.NodeID) bool) *Matrix {
	n := b.Min.N
	out := NewMatrix(n)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t {
				continue
			}
			if pick(graph.NodeID(s), graph.NodeID(t)) {
				out.D[s*n+t] = b.Max.D[s*n+t]
			} else {
				out.D[s*n+t] = b.Min.D[s*n+t]
			}
		}
	}
	return out
}

// SinglePair returns the matrix with demand d on pair (s,t) and zero
// elsewhere; the adversaries of Theorem 4 use these.
func SinglePair(n int, s, t graph.NodeID, d float64) *Matrix {
	m := NewMatrix(n)
	m.Set(s, t, d)
	return m
}

// Gravity builds the gravity-model base matrix of §VI-B: the flow from i to
// j is proportional to the product of i's and j's total outgoing capacity.
// The matrix is normalized so its largest entry equals peak.
func Gravity(g *graph.Graph, peak float64) *Matrix {
	n := g.NumNodes()
	outCap := make([]float64, n)
	for _, e := range g.Edges() {
		outCap[e.From] += e.Capacity
	}
	m := NewMatrix(n)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s != t {
				m.D[s*n+t] = outCap[s] * outCap[t]
			}
		}
	}
	if mx := m.MaxEntry(); mx > 0 {
		m.Scale(peak / mx)
	}
	return m
}

// The bimodal traffic model of §VI-B: a small fraction of node pairs
// exchange large flows and the rest exchange small flows. The
// parameterization mirrors the common one in [23]: 10% elephant pairs,
// 20:1 elephant-to-mouse ratio.
const (
	bimodalLargeFraction = 0.1  // fraction of pairs drawing from the large mode
	bimodalLargeMean     = 20.0 // mean of the large mode
	bimodalSmallMean     = 1.0  // mean of the small mode
	bimodalSigma         = 0.2  // relative standard deviation of both modes
)

// Bimodal samples a bimodal base matrix. Negative draws clamp to zero.
func Bimodal(g *graph.Graph, rng *rand.Rand) *Matrix {
	n := g.NumNodes()
	m := NewMatrix(n)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t {
				continue
			}
			mean := bimodalSmallMean
			if rng.Float64() < bimodalLargeFraction {
				mean = bimodalLargeMean
			}
			d := mean * (1 + bimodalSigma*rng.NormFloat64())
			if d < 0 {
				d = 0
			}
			m.D[s*n+t] = d
		}
	}
	return m
}
