// The spine: Engine.Compute, the portfolio's coyote strategy and a fresh
// session all hold the same solved configuration (strategy.Solved), so for
// one topology, box and explicit effort they must agree bit for bit — at
// any worker count.
package coyote_test

import (
	"context"
	"testing"

	coyote "github.com/coyote-te/coyote"
	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/strategy"
	"github.com/coyote-te/coyote/internal/topo"
)

func buildSolved(t *testing.T, name string, cfg strategy.Config) *strategy.Solved {
	t.Helper()
	g, err := topo.Load("Abilene")
	if err != nil {
		t.Fatal(err)
	}
	s, err := strategy.New(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := strategy.Build(s, g, demand.MarginBox(demand.Gravity(g, 1), 2))
	if err != nil {
		t.Fatal(err)
	}
	return plan.(*strategy.Solved)
}

// view is a solved configuration in the shape Compute returns.
func view(p *strategy.Solved) *coyote.Config {
	return &coyote.Config{Routing: p.Routing, Perf: p.Perf.Ratio, ECMPPerf: p.ECMPPerf}
}

func sameConfig(t *testing.T, what string, got, want *coyote.Config) {
	t.Helper()
	if got.Perf != want.Perf || got.ECMPPerf != want.ECMPPerf {
		t.Errorf("%s: Perf/ECMPPerf %v/%v, want %v/%v", what, got.Perf, got.ECMPPerf, want.Perf, want.ECMPPerf)
	}
	for dst := range want.Routing.Phi {
		for e := range want.Routing.Phi[dst] {
			if got.Routing.Phi[dst][e] != want.Routing.Phi[dst][e] {
				t.Fatalf("%s: Phi[%d][%d] = %v, want %v", what, dst, e,
					got.Routing.Phi[dst][e], want.Routing.Phi[dst][e])
			}
		}
	}
}

func TestOneSolvedConfiguration(t *testing.T) {
	var serial *coyote.Config
	for _, workers := range []int{1, 4} {
		cfg := strategy.Config{OptIters: 40, AdvIters: 2, Samples: 3, Seed: 1, Workers: workers}
		opts := coyote.Options{OptimizerIters: 40, AdversarialIters: 2, Samples: 3, Seed: 1, Workers: workers}

		tp, err := coyote.LoadTopology("Abilene")
		if err != nil {
			t.Fatal(err)
		}
		bounds := coyote.MarginBounds(coyote.GravityDemands(tp, 1), 2)
		want, err := coyote.New(tp, bounds, opts).Compute()
		if err != nil {
			t.Fatal(err)
		}
		if serial == nil {
			serial = want
		}
		sameConfig(t, "Compute across worker counts", want, serial)

		sameConfig(t, "strategy.Build(coyote)", view(buildSolved(t, "coyote", cfg)), want)

		ses, err := coyote.NewSession(tp, bounds, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameConfig(t, "NewSession.Config", ses.Config(), want)

		// coyote-fptas is the same solve on an evaluator pinned to the FPTAS.
		g, _ := topo.Load("Abilene")
		ec := cfg.EvalConfig()
		ec.ExactNodeLimit = 1
		ev := oblivious.NewEvaluator(g, dagx.BuildAll(g, dagx.Augmented), demand.MarginBox(demand.Gravity(g, 1), 2), ec)
		fptas, err := strategy.Solve(context.Background(), ev, cfg.Options())
		if err != nil {
			t.Fatal(err)
		}
		sameConfig(t, "coyote-fptas", view(buildSolved(t, "coyote-fptas", cfg)), view(fptas))
	}
}
