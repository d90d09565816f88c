package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(3); got != 3 {
		t.Errorf("Resolve(3) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Resolve(0); got != want {
		t.Errorf("Resolve(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Resolve(-5); got != want {
		t.Errorf("Resolve(-5) = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		for _, n := range []int{0, 1, 2, 5, 100, 1000} {
			counts := make([]int32, n)
			For(workers, n, func(i int) {
				atomic.AddInt32(&counts[i], 1)
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestForInlineOrderWithOneWorker(t *testing.T) {
	var order []int
	For(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("single-worker order = %v, want ascending", order)
		}
	}
}

// TestForDeterministicReduction exercises the determinism contract: leaves
// write index-addressed slots, the caller reduces in index order, and the
// result must be bit-identical for every worker count.
func TestForDeterministicReduction(t *testing.T) {
	n := 500
	reduce := func(workers int) float64 {
		slots := make([]float64, n)
		For(workers, n, func(i int) {
			x := float64(i)
			slots[i] = (x*1.000001 + 0.3) / (x + 7)
		})
		sum := 0.0
		for _, v := range slots {
			sum += v
		}
		return sum
	}
	want := reduce(1)
	for _, w := range []int{2, 3, 8, 33} {
		if got := reduce(w); got != want {
			t.Errorf("workers=%d: sum %v != serial %v", w, got, want)
		}
	}
}

func TestForErr(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		// No failures: every index runs, nil error.
		var ran atomic.Int32
		if err := ForErr(workers, 50, func(i int) error {
			ran.Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if ran.Load() != 50 {
			t.Fatalf("workers=%d: ran %d of 50 leaves", workers, ran.Load())
		}
		// Failures at several indices: every leaf still runs, and the
		// reported error is the lowest failing index regardless of
		// scheduling.
		ran.Store(0)
		err := ForErr(workers, 50, func(i int) error {
			ran.Add(1)
			if i == 7 || i == 33 {
				return fmt.Errorf("leaf %d", i)
			}
			return nil
		})
		if ran.Load() != 50 {
			t.Fatalf("workers=%d: failure stopped leaves early (%d of 50)", workers, ran.Load())
		}
		if err == nil || err.Error() != "leaf 7" {
			t.Fatalf("workers=%d: err = %v, want leaf 7", workers, err)
		}
	}
	if err := ForErr(4, 0, func(i int) error { return fmt.Errorf("leaf %d", i) }); err != nil {
		t.Fatalf("n=0: err = %v", err)
	}
}
