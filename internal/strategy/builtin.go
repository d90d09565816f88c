package strategy

import (
	"math"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/gpopt"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/localsearch"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/pdrouting"
)

// buildECMP is traditional OSPF/ECMP under INVERSECAPACITY weights: equal
// splitting over shortest-path DAGs, oblivious to the box.
func buildECMP(_ Config, g *graph.Graph, _ *demand.Box) (Plan, error) {
	work := g.Clone()
	work.SetWeights(localsearch.InverseCapacityWeights(g))
	dags := dagx.BuildAll(work, dagx.ShortestPath)
	r := pdrouting.Uniform(work, dags)
	return &staticPlan{r: r, cost: Cost{DAGEdges: dagEdges(r)}}, nil
}

// buildLocalSearch runs the §V-B/Appendix A weight search against the box
// and deploys plain ECMP on the tuned weights — the strongest routing
// reachable without any lies.
func buildLocalSearch(cfg Config, g *graph.Graph, box *demand.Box) (Plan, error) {
	ls, err := localsearch.Optimize(g, box, localsearch.Config{
		OuterIters: cfg.AdvIters,
		InnerMoves: 10 * g.NumEdges(),
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	work := g.Clone()
	work.SetWeights(ls.Weights)
	dags := dagx.BuildAll(work, dagx.ShortestPath)
	r := pdrouting.Uniform(work, dags)
	return &staticPlan{r: r, cost: Cost{DAGEdges: dagEdges(r), Scenarios: len(ls.CriticalDMs)}}, nil
}

// buildGPOpt runs the GP-style splitting optimizer alone — no adversarial
// loop — against the two seed scenarios every COYOTE run starts from (the
// box maximum and its geometric midpoint). It isolates how much of COYOTE's
// win comes from the optimizer versus the adversary.
func buildGPOpt(cfg Config, g *graph.Graph, box *demand.Box) (Plan, error) {
	dags := dagx.BuildAll(g, dagx.Augmented)
	ev := oblivious.NewEvaluator(g, dags, box, cfg.EvalConfig())
	var scenarios []gpopt.Scenario
	add := func(D *demand.Matrix) {
		if D.Total() <= 0 {
			return
		}
		if norm := ev.OptDAG(D); norm > 0 && !math.IsInf(norm, 1) {
			scenarios = append(scenarios, gpopt.NewScenario(g, D, norm))
		}
	}
	add(box.Max.Clone())
	add(box.Midpoint())
	opt := gpopt.New(g, dags, gpopt.Config{Iters: cfg.OptIters, Workers: cfg.Workers})
	opt.Run(scenarios)
	r := opt.Routing()
	return &staticPlan{r: r, cost: Cost{DAGEdges: dagEdges(r), Scenarios: len(scenarios)}}, nil
}

// buildCoyote is the full COYOTE pipeline; the plan is the Solved value
// Engine.Compute, failover scenarios and sessions hold.
func buildCoyote(cfg Config, g *graph.Graph, box *demand.Box) (Plan, error) {
	p, err := Coyote(g, box, cfg)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// buildOPT is the OPT oracle: per-matrix exact min-MLU multicommodity flow
// within the augmented DAGs — the demands-aware optimum OPTDAG that
// normalizes every figure in the paper (§VI). It is the denominator of the
// portfolio table, and by construction the best any DAG-respecting
// strategy can do on each individual matrix.
func buildOPT(cfg Config, g *graph.Graph, _ *demand.Box) (Plan, error) {
	return &optPlan{
		g:    g,
		dags: dagx.BuildAll(g, dagx.Augmented),
		cfg:  cfg,
	}, nil
}

type optPlan struct {
	g    *graph.Graph
	dags []*dagx.DAG
	cfg  Config
}

func (p *optPlan) Route(dm *demand.Matrix) (*pdrouting.Routing, error) {
	return oblivious.BaseRouting(p.g, p.dags, dm, p.cfg.ExactNodeLimit, p.cfg.Eps)
}

func (p *optPlan) Cost() Cost {
	n := 0
	for _, d := range p.dags {
		n += d.NumEdges()
	}
	return Cost{DAGEdges: n, Adaptive: true}
}
