package gpopt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// softmax writes exp(v_i − max)/Σ into out (allocating if nil) and returns
// it. It is the scalar oracle's softmax; the optimizer's materialize and
// smooth-max pass perform its operations in its order without calling it,
// and are pinned to it bit for bit through the oracle.
func softmax(v []float64, out []float64) []float64 {
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

func TestSoftmaxNormalized(t *testing.T) {
	v := []float64{0.5, -1, 2}
	p := softmax(v, nil)
	sum := 0.0
	for _, x := range p {
		sum += x
		if x <= 0 {
			t.Fatalf("softmax produced non-positive mass %g", x)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sums to %g", sum)
	}
	if !(p[2] > p[0] && p[0] > p[1]) {
		t.Fatalf("softmax not order preserving: %v", p)
	}
}

// Property: softmax is invariant to constant shifts and sums to 1.
func TestPropertySoftmaxShiftInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		v := make([]float64, n)
		shifted := make([]float64, n)
		c := rng.NormFloat64() * 10
		for i := range v {
			v[i] = rng.NormFloat64() * 5
			shifted[i] = v[i] + c
		}
		a := softmax(v, nil)
		b := softmax(shifted, nil)
		sum := 0.0
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-9 {
				return false
			}
			sum += a[i]
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
