package gpopt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

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
