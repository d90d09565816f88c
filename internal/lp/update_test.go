package lp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// testSpx returns a workspace for m's built form with the all-logical basis
// installed and factorized.
func testSpx(m *Model) *spx {
	p := m.build()
	s := newSpx(p.a.m, p.a.n)
	s.p = p
	s.coldStart()
	s.computeXB()
	return s
}

// networkModel generates a min-cost-flow LP on a random graph: one boxed
// variable per arc, one balance row per node. Its bases are spanning forests,
// so spikes stay short and a factorization takes every update it may.
func networkModel(rng *rand.Rand, nodes, arcs int) *Model {
	m := NewModel(Minimize)
	terms := make([][]Term, nodes)
	for a := 0; a < arcs; a++ {
		u := rng.Intn(nodes)
		v := (u + 1 + rng.Intn(nodes-1)) % nodes
		x := m.AddVar(0, 1+rng.Float64()*4, rng.Float64()*3)
		terms[u] = append(terms[u], Term{x, 1})
		terms[v] = append(terms[v], Term{x, -1})
	}
	for i, ts := range terms {
		b := rng.Float64() - 0.5
		m.AddRow(ts, b-float64(i%3), b+1)
	}
	return m
}

// pickPivot chooses a basis change the way the simplex would accept one: a
// random nonbasic column enters (its α computed by ftranAlpha) and leaves at
// the basis position with the largest |α| among a random half of them, so the
// new basis is well conditioned. It reports r = −1 when no column qualified.
func pickPivot(s *spx, rng *rand.Rand) (enter, r int32) {
	for tries := 0; tries < 100; tries++ {
		j := int32(rng.Intn(s.ncol))
		if s.status[j] == BasisBasic {
			continue
		}
		s.ftranAlpha(j)
		r, best := int32(-1), 1e-3
		for k, a := range s.alpha {
			if rng.Intn(2) == 0 && math.Abs(a) > best {
				r, best = int32(k), math.Abs(a)
			}
		}
		if r >= 0 {
			return j, r
		}
	}
	return -1, -1
}

// pivotRandomly performs one basis change chosen by pickPivot.
func pivotRandomly(s *spx, rng *rand.Rand) bool {
	enter, r := pickPivot(s, rng)
	return r >= 0 && s.pivot(enter, 1, 0, r, BasisLower)
}

// factorDrift compares the workspace's live (updated) factors against a
// fresh factorization of the same basis: ftran and btran of random
// right-hand sides, returning the largest difference relative to the fresh
// result's largest entry.
func factorDrift(s *spx, rng *rand.Rand) (float64, error) {
	fresh, ok := luFactorize(&s.p.a, s.basic, newLUScratch(s.m))
	if !ok {
		return 0, fmt.Errorf("fresh factorization of the updated basis is singular")
	}
	m := s.m
	b1, b2 := make([]float64, m), make([]float64, m)
	x1, x2 := make([]float64, m), make([]float64, m)
	drift := 0.0
	compare := func() {
		scale := 1.0
		for _, v := range x2 {
			scale = math.Max(scale, math.Abs(v))
		}
		for i := range x1 {
			drift = math.Max(drift, math.Abs(x1[i]-x2[i])/scale)
		}
	}
	for rep := 0; rep < 3; rep++ {
		for i := range b1 {
			b1[i] = 0
			if rng.Intn(3) == 0 {
				b1[i] = rng.Float64()*2 - 1
			}
		}
		copy(b2, b1)
		s.ftran(b1, x1)
		fresh.ftranLU(b2, x2, nil)
		compare()
		for i := range b1 {
			b1[i] = rng.Float64()*2 - 1
		}
		s.btran(b1, x1)
		fresh.btranLU(b1, x2)
		compare()
	}
	return drift, nil
}

// TestUpdateMatchesRefactorization: after every Forrest–Tomlin update the
// factors solve like a fresh factorization of the same basis, to 1e-9
// relative, across several refactorization boundaries of random pivot
// sequences — on network bases, which reach the update cap, and on denser
// random bases, which reach the growth cap first.
func TestUpdateMatchesRefactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 4; trial++ {
		var mdl *Model
		if trial%2 == 0 {
			mdl = networkModel(rng, 60, 180)
		} else {
			mdl, _ = boxedModel(rng, 60, 40)
		}
		s := testSpx(mdl)
		updates := 0
		for step := 0; step < 3*ftMaxUpdates; step++ {
			if !pivotRandomly(s, rng) {
				t.Fatalf("trial %d, step %d: no pivot found", trial, step)
			}
			updates = max(updates, len(s.lu.etaPiv))
			drift, err := factorDrift(s, rng)
			if err != nil || drift > 1e-9 {
				t.Fatalf("trial %d, step %d (%d live updates): drift %g, %v", trial, step, len(s.lu.etaPiv), drift, err)
			}
		}
		if (trial%2 == 0 && updates != ftMaxUpdates) || s.stats.Refactorizations < 3 {
			t.Fatalf("trial %d: at most %d live updates, %d factorizations — the sequence no longer crosses refactorization boundaries",
				trial, updates, s.stats.Refactorizations)
		}
		if s.stats.StabilityRefactorizations != 0 {
			t.Fatalf("trial %d: %d updates failed the stability test on well-conditioned pivots", trial, s.stats.StabilityRefactorizations)
		}
	}
}

// TestUpdateStabilityTest crafts an update whose α_r disagrees with its
// spike: update must refuse it and leave the factors as they were, and
// pivot must then refactorize the new basis and count it.
func TestUpdateStabilityTest(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mdl, _ := boxedModel(rng, 40, 30)
	s := testSpx(mdl)
	for step := 0; step < 10; step++ {
		if !pivotRandomly(s, rng) {
			t.Fatal("no pivot found")
		}
	}
	enter, r := pickPivot(s, rng)
	if r < 0 {
		t.Fatal("no pivot found")
	}
	live := len(s.lu.etaPiv)
	if s.lu.update(r, s.spike, 2*s.alpha[r]) {
		t.Fatal("update accepted an α_r twice the one its spike implies")
	}
	if len(s.lu.etaPiv) != live {
		t.Fatalf("refused update left %d row etas, want %d", len(s.lu.etaPiv), live)
	}
	if drift, err := factorDrift(s, rng); err != nil || drift > 1e-9 {
		t.Fatalf("factors changed by a refused update: drift %g, %v", drift, err)
	}

	before := s.stats
	s.alpha[r] *= 2
	if !s.pivot(enter, 1, 0, r, BasisLower) {
		t.Fatal("pivot failed on a nonsingular basis")
	}
	if s.stats.StabilityRefactorizations != before.StabilityRefactorizations+1 ||
		s.stats.Refactorizations != before.Refactorizations+1 || len(s.lu.etaPiv) != 0 {
		t.Fatalf("after a refused update: stats %+v (before %+v), %d row etas; want one counted refactorization",
			s.stats, before, len(s.lu.etaPiv))
	}
	if drift, err := factorDrift(s, rng); err != nil || drift > 1e-9 {
		t.Fatalf("refactorized basis: drift %g, %v", drift, err)
	}
}

// TestSolveEndsOnMatchingFactors: the factors a real solve ends on — carrying
// whatever updates its last pivots made — solve like a fresh factorization of
// its final basis.
func TestSolveEndsOnMatchingFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 5; trial++ {
		mdl, _ := boxedModel(rng, 80, 60)
		sol, err := mdl.Solve(context.Background(), nil)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("trial %d: %v, %v", trial, sol.Status, err)
		}
		if drift, err := factorDrift(mdl.ws, rng); err != nil || drift > 1e-9 {
			t.Fatalf("trial %d (%d pivots): drift %g, %v", trial, sol.Stats.Iterations, drift, err)
		}
	}
}
