package lp

import "math/rand"

// UpdateDrift runs pivots random basis changes on m's built form from the
// all-logical basis and returns the largest relative difference between the
// updated factors and a fresh factorization of the same basis seen after any
// of them (see factorDrift), with the number of factorizations it took.
func UpdateDrift(m *Model, seed int64, pivots int) (drift float64, factorizations int, err error) {
	rng := rand.New(rand.NewSource(seed))
	s := testSpx(m)
	for step := 0; step < pivots; step++ {
		if !pivotRandomly(s, rng) {
			break
		}
		d, err := factorDrift(s, rng)
		if err != nil {
			return drift, s.stats.Refactorizations, err
		}
		drift = max(drift, d)
	}
	return drift, s.stats.Refactorizations, nil
}
