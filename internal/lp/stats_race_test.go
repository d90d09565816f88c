package lp

import (
	"context"
	"sync"
	"testing"

	"github.com/coyote-te/coyote/internal/obs"
)

// TestGlobalStatsConcurrentSolves hammers the process-wide solver counters
// from two directions at once — goroutines running solves and readers
// polling GlobalStats and the obs registry snapshot — so `go test -race`
// proves the registry-backed stats path is data-race-free. Counters only go
// up, so once the solvers quiesce the registry must have moved by exactly
// the work they did: every solve of the same model takes the same pivots.
func TestGlobalStatsConcurrentSolves(t *testing.T) {
	build := func() *Model {
		m := NewModel(Minimize)
		x := m.AddVar(0, 4, 1)
		y := m.AddVar(0, 4, 2)
		z := m.AddVar(0, 4, 1)
		m.AddGE([]Term{{x, 1}, {y, 1}}, 2)
		m.AddGE([]Term{{y, 1}, {z, 1}}, 2)
		m.AddLE([]Term{{x, 1}, {z, 1}}, 5)
		return m
	}
	one, err := build().Solve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	const (
		solvers        = 4
		solvesPerG     = 40
		readsPerReader = 200
	)
	before := obs.Default.Snapshot()
	var wg sync.WaitGroup

	for g := 0; g < solvers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < solvesPerG; i++ {
				m := build()
				sol, err := m.Solve(context.Background(), nil)
				if err != nil {
					t.Error(err)
					return
				}
				if sol.Status != Optimal {
					t.Errorf("status %v, want optimal", sol.Status)
					return
				}
			}
		}()
	}

	// Readers: the GlobalStats view and the registry exposition path.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < readsPerReader; i++ {
				_ = GlobalStats()
				for _, fam := range obs.Default.Snapshot() {
					_ = fam.Name
				}
			}
		}()
	}

	wg.Wait()

	const n = solvers * solvesPerG
	d := obs.Default.Snapshot().Since(before)
	for key, want := range map[string]float64{
		"coyote_lp_solves_total":            n,
		"coyote_lp_iterations_total":        n * float64(one.Stats.Iterations),
		"coyote_lp_phase1_iterations_total": n * float64(one.Stats.Phase1Iterations),
		"coyote_lp_refactorizations_total":  n * float64(one.Stats.Refactorizations),
		"coyote_lp_warm_attempts_total":     0,
	} {
		if got := movedBy(t, d, key); got != want {
			t.Errorf("%d concurrent solves moved %s by %v, want %v", n, key, got, want)
		}
	}
}

// movedBy reads key from a Snapshot.Since map and fails the test when the
// registry holds no such series, so a renamed or mistyped counter cannot
// read as 0.
func movedBy(tb testing.TB, moved map[string]float64, key string) float64 {
	tb.Helper()
	v, ok := moved[key]
	if !ok {
		tb.Fatalf("the registry has no series %s", key)
	}
	return v
}
