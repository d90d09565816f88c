package gpopt

import (
	"math"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
)

// diamond builds the four-node running-example-style network.
func diamond() *graph.Graph {
	g := graph.New()
	a, b, c, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d")
	g.AddLink(a, b, 1, 1)
	g.AddLink(a, c, 1, 1)
	g.AddLink(b, d, 1, 1)
	g.AddLink(c, d, 1, 1)
	g.AddLink(b, c, 1, 1)
	return g
}

func testScenarios(g *graph.Graph) []Scenario {
	D := demand.Gravity(g, 1)
	return []Scenario{NewScenario(g, D, 1)}
}

func TestMatches(t *testing.T) {
	g := diamond()
	dags := dagx.BuildAll(g, dagx.Augmented)
	o := New(g, dags, Config{Iters: 10})
	if !o.Matches(g, dags) {
		t.Fatal("optimizer should match its own graph and DAGs")
	}
	other := dagx.BuildAll(g, dagx.Augmented)
	if o.Matches(g, other) {
		t.Fatal("distinct DAG instances must not match")
	}
	g2 := diamond()
	if o.Matches(g2, dags) {
		t.Fatal("distinct graph instances must not match")
	}
}

func TestNewFromRoutingReproducesRouting(t *testing.T) {
	g := diamond()
	dags := dagx.BuildAll(g, dagx.Augmented)
	scen := testScenarios(g)

	src := New(g, dags, Config{Iters: 60})
	src.Run(scen)
	want := src.Routing()

	warm := NewFromRouting(g, dags, Config{Iters: 60}, want)
	got := warm.Routing()
	for dst := range want.Phi {
		for e := range want.Phi[dst] {
			if d := math.Abs(got.Phi[dst][e] - want.Phi[dst][e]); d > 1e-6 {
				t.Fatalf("Phi[%d][%d]: warm %v, want %v (Δ %v)", dst, e, got.Phi[dst][e], want.Phi[dst][e], d)
			}
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSetConfigKeepsState(t *testing.T) {
	g := diamond()
	dags := dagx.BuildAll(g, dagx.Augmented)
	scen := testScenarios(g)
	o := New(g, dags, Config{Iters: 30})
	o.Run(scen)
	before := o.Routing()
	o.SetConfig(Config{Iters: 5})
	after := o.Routing()
	for dst := range before.Phi {
		for e := range before.Phi[dst] {
			if before.Phi[dst][e] != after.Phi[dst][e] {
				t.Fatal("SetConfig must not alter parameters")
			}
		}
	}
	if o.cfg.Iters != 5 {
		t.Fatalf("cfg.Iters = %d, want 5", o.cfg.Iters)
	}
}
