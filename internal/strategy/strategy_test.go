// Tests for the strategy portfolio: registry sanity, the repo-wide
// determinism contract (seed-deterministic, bit-identical at any Workers
// count) extended to every registered strategy, the semi-oblivious
// never-worse guarantee, and the LP contract its Adapt path rides on
// (crash-started RHS-edit re-solves finish with zero phase-1 iterations).
package strategy

import (
	"errors"
	"math"
	"testing"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/mcf"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/topo"
)

// testConfig keeps strategy builds sub-second while exercising the full
// adversarial loop of the COYOTE strategies.
func testConfig(workers int) Config {
	return Config{
		Seed:     7,
		Workers:  workers,
		OptIters: 40,
		AdvIters: 1,
		Samples:  2,
		Eps:      0.25,
	}
}

// fixture is the shared scenario: Abilene under a margin-2 gravity box,
// with three matrices spanning the box (min, midpoint, max).
func fixture(t testing.TB) (*graph.Graph, *demand.Box, []*demand.Matrix) {
	g, err := topo.Load("Abilene")
	if err != nil {
		t.Fatal(err)
	}
	box := demand.MarginBox(demand.Gravity(g, 1), 2)
	mid := box.Min.Clone()
	for i := range mid.D {
		mid.D[i] = (box.Min.D[i] + box.Max.D[i]) / 2
	}
	return g, box, []*demand.Matrix{box.Min, mid, box.Max}
}

func TestNames(t *testing.T) {
	names := Names()
	want := []string{
		"coyote", "coyote-fptas", "cspf", "ecmp", "gpopt",
		"localsearch", "omw", "opt", "semi-oblivious",
	}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q (full list %v)", i, names[i], want[i], names)
		}
	}
	if _, err := New("no-such-strategy", Config{}); err == nil {
		t.Fatal("New accepted an unknown strategy name")
	}
	var ee *mcf.EpsError
	if _, err := New("coyote", Config{Eps: 0.5}); !errors.As(err, &ee) {
		t.Fatalf("New with Eps 0.5: error %v, want an *mcf.EpsError", err)
	}
}

// routings builds the named strategy under cfg and collects the routing it
// produces (via Apply, so adaptive plans take their adaptive path) for each
// matrix in dms.
func routings(t *testing.T, name string, workers int, g *graph.Graph, box *demand.Box, dms []*demand.Matrix) []*pdrouting.Routing {
	t.Helper()
	s, err := New(name, testConfig(workers))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(s, g, box)
	if err != nil {
		t.Fatalf("%s: Build: %v", name, err)
	}
	out := make([]*pdrouting.Routing, len(dms))
	for i, dm := range dms {
		r, err := Apply(name, plan, dm)
		if err != nil {
			t.Fatalf("%s: Apply matrix %d: %v", name, i, err)
		}
		out[i] = r
	}
	return out
}

func samePhi(t *testing.T, name string, a, b *pdrouting.Routing) {
	t.Helper()
	if len(a.Phi) != len(b.Phi) {
		t.Fatalf("%s: Phi destination counts differ: %d vs %d", name, len(a.Phi), len(b.Phi))
	}
	for dst := range a.Phi {
		if len(a.Phi[dst]) != len(b.Phi[dst]) {
			t.Fatalf("%s: Phi[%d] lengths differ", name, dst)
		}
		for e := range a.Phi[dst] {
			if a.Phi[dst][e] != b.Phi[dst][e] {
				t.Fatalf("%s: Phi[%d][%d] = %v vs %v — not bit-identical", name,
					dst, e, a.Phi[dst][e], b.Phi[dst][e])
			}
		}
	}
}

// TestStrategyParity extends the root parity suite to the whole portfolio:
// every registered strategy must produce bit-identical splitting ratios for
// Workers=1 and Workers=4 (and therefore be seed-deterministic), on every
// matrix it is asked to route or adapt to.
func TestStrategyParity(t *testing.T) {
	if testing.Short() {
		t.Skip("portfolio parity sweep in -short mode")
	}
	g, box, dms := fixture(t)
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			serial := routings(t, name, 1, g, box, dms)
			parallel := routings(t, name, 4, g, box, dms)
			for i := range dms {
				samePhi(t, name, serial[i], parallel[i])
			}
		})
	}
}

// TestSemiObliviousNeverWorse checks the Adapter contract on matrices across
// the box: the adapted routing's max utilization never exceeds the static
// oblivious routing's on the same matrix.
func TestSemiObliviousNeverWorse(t *testing.T) {
	g, box, dms := fixture(t)
	s, err := New("semi-oblivious", testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(s, g, box)
	if err != nil {
		t.Fatal(err)
	}
	for i, dm := range dms {
		static, err := plan.Route(dm)
		if err != nil {
			t.Fatal(err)
		}
		adapted, err := plan.(Adapter).Adapt(dm)
		if err != nil {
			t.Fatalf("matrix %d: Adapt: %v", i, err)
		}
		if a, s := adapted.MaxUtilization(dm), static.MaxUtilization(dm); a > s {
			t.Errorf("matrix %d: adapted MLU %v > static MLU %v — Adapt made things worse", i, a, s)
		}
	}
}

// TestSemiObliviousWarmRestart pins the LP-layer contract the Adapt path is
// built on: every per-matrix re-solve is a pure RHS edit started from the
// crash basis of the new matrix, which is primal feasible — zero phase-1
// iterations. Reads process-wide lp counters, so no t.Parallel.
func TestSemiObliviousWarmRestart(t *testing.T) {
	g, box, dms := fixture(t)
	s, err := New("semi-oblivious", testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(s, g, box)
	if err != nil {
		t.Fatal(err)
	}
	adapter := plan.(Adapter)
	before := obs.Default.Snapshot()
	for i, dm := range dms {
		if _, err := adapter.Adapt(dm); err != nil {
			t.Fatalf("matrix %d: Adapt: %v", i, err)
		}
	}
	st := obs.Default.Snapshot().Since(before)
	if movedBy(t, st, "coyote_lp_solves_total") == 0 {
		t.Fatal("Adapt triggered no LP solves — crash-start path not exercised")
	}
	if p1 := movedBy(t, st, "coyote_lp_phase1_iterations_total"); p1 != 0 {
		t.Errorf("RHS-edit re-solves ran %v phase-1 iterations, want 0 (crash start)", p1)
	}
}

func BenchmarkStrategyBuild(b *testing.B) {
	g, box, _ := fixture(b)
	for _, name := range Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			cfg := testConfig(0)
			for i := 0; i < b.N; i++ {
				s, err := New(name, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Build(s, g, box); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSemiObliviousAdapt(b *testing.B) {
	g, box, dms := fixture(b)
	s, err := New("semi-oblivious", testConfig(0))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := Build(s, g, box)
	if err != nil {
		b.Fatal(err)
	}
	adapter := plan.(Adapter)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adapter.Adapt(dms[i%len(dms)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBuildChecksTheBox: Build is a caller of the solve, so it runs the
// solve's input gate — a box of the wrong dimension or with nothing to
// normalize, a topology that is not strongly connected or carries an
// unusable capacity is an error for every strategy, not a panic in one of
// them or a plan that silently drops the demands it cannot route.
func TestBuildChecksTheBox(t *testing.T) {
	g, _, _ := fixture(t)
	islands := graph.New()
	a, b, c, d := islands.AddNode("a"), islands.AddNode("b"), islands.AddNode("c"), islands.AddNode("d")
	islands.AddLink(a, b, 1, 1)
	islands.AddLink(c, d, 1, 1)
	infCap := graph.New()
	x, y := infCap.AddNode("x"), infCap.AddNode("y")
	infCap.AddLink(x, y, math.Inf(1), 1)
	// A ring that stays connected without its infinite-weight link.
	infWeight := graph.New()
	r0, r1, r2, r3 := infWeight.AddNode("r0"), infWeight.AddNode("r1"), infWeight.AddNode("r2"), infWeight.AddNode("r3")
	infWeight.AddLink(r0, r1, 10, 1)
	infWeight.AddLink(r1, r2, 10, 1)
	infWeight.AddLink(r2, r3, 10, 1)
	infWeight.AddLink(r3, r0, 10, math.Inf(1))
	for _, name := range Names() {
		s, err := New(name, testConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		for what, box := range map[string]*demand.Box{
			"nil":             nil,
			"wrong dimension": demand.ObliviousBox(g.NumNodes()-1, 1),
			"all zero":        demand.ObliviousBox(g.NumNodes(), 0),
		} {
			var be *demand.BoxError
			if _, err := Build(s, g, box); !errors.As(err, &be) {
				t.Errorf("%s, %s box: err = %v, want a *demand.BoxError", name, what, err)
			}
		}
		for what, bad := range map[string]*graph.Graph{
			"two islands":       islands,
			"infinite capacity": infCap,
			"infinite weight":   infWeight,
		} {
			if plan, err := Build(s, bad, demand.ObliviousBox(bad.NumNodes(), 1)); err == nil {
				t.Errorf("%s, %s: Build returned plan %T and no error", name, what, plan)
			}
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
