// Package geom holds the numerically stable log-space primitives behind the
// geometric program of Appendix C of the paper.
//
// The in-DAG optimizer (package gpopt) works in log space, where a
// posynomial constraint becomes a log-sum-exp of affine functions — "a
// logarithm of a sum of exponentials of linear functions and so is convex"
// (§V-C) — and the splitting-ratio constraint Σφ = 1 is kept exact by the
// softmax reparameterization.
package geom

import "math"

// Softmax writes exp(v_i − max)/Σ into out (allocating if nil) and returns
// it. It is the gradient of log-sum-exp and the reparameterization the
// splitting-ratio optimizer uses to keep Σφ = 1 exactly — the normalized
// monomial family produced by the paper's condensation of the
// splitting-ratio constraint.
func Softmax(v []float64, out []float64) []float64 {
	if out == nil {
		out = make([]float64, len(v))
	}
	if len(v) == 0 {
		return out
	}
	mx := v[0]
	for _, x := range v[1:] {
		if x > mx {
			mx = x
		}
	}
	s := 0.0
	for i, x := range v {
		out[i] = math.Exp(x - mx)
		s += out[i]
	}
	inv := 1 / s
	for i := range out {
		out[i] *= inv
	}
	return out
}
