package strategy

import (
	"fmt"
	"sync"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/lp"
	"github.com/coyote-te/coyote/internal/mcf"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/spf"
)

// supportTol prunes splitting ratios below this from the semi-oblivious
// path set: edges COYOTE barely uses are dropped, edges it leans on stay.
const supportTol = 1e-3

// buildSemiOblivious is the Kulfi-style middle ground: path sets come from
// the COYOTE oblivious solution (robust to anything in the box), but the
// *rates* on those paths are re-solved per observed matrix on one
// MinMLUModel, re-targeted by RHS edits and started from the crash basis of
// that matrix (the in-tree vertex SolveMLU starts from): no phase-1 pivots,
// and a result that depends on the matrix alone, never on earlier calls.
// Adapt is never worse than the static oblivious routing on the same matrix:
// the adapted solution is kept only when it evaluates at least as well.
func buildSemiOblivious(cfg Config, g *graph.Graph, box *demand.Box) (Plan, error) {
	static, err := Coyote(g, box, cfg)
	if err != nil {
		return nil, err
	}

	// The support DAGs: edges the oblivious routing actually uses, plus the
	// full shortest-path DAG so every pair stays routable after pruning.
	// Both parts lie within the augmented DAG, so acyclicity is inherited.
	support := make([]*dagx.DAG, g.NumNodes())
	for t := range support {
		member := spf.ToDestination(g, graph.NodeID(t)).ShortestPathEdges(g)
		for e, phi := range static.Routing.Phi[t] {
			if phi >= supportTol && static.Ev.DAGs[t].Member[e] {
				member[e] = true
			}
		}
		d, err := dagx.FromEdges(g, graph.NodeID(t), member)
		if err != nil {
			return nil, fmt.Errorf("strategy: semi-oblivious support DAG for %d: %w", t, err)
		}
		support[t] = d
	}

	// The rate LP is shaped on the box maximum so every destination that can
	// ever see demand has its conservation rows; Adapt then only edits RHS
	// values.
	model := mcf.NewMinMLUModel(g, support, box.Max)
	if _, err := model.SolveMLU(nil); err != nil {
		return nil, fmt.Errorf("strategy: semi-oblivious rate LP infeasible at box max: %w", err)
	}

	p := &semiObliviousPlan{
		g:       g,
		support: support,
		static:  static.Routing,
		model:   model,
		cost: Cost{
			DAGEdges:  0,
			Adaptive:  true,
			Scenarios: static.ScenarioCount,
		},
	}
	for _, d := range support {
		p.cost.DAGEdges += d.NumEdges()
	}
	return p, nil
}

type semiObliviousPlan struct {
	g       *graph.Graph
	support []*dagx.DAG
	static  *pdrouting.Routing
	cost    Cost

	mu    sync.Mutex
	model *mcf.MinMLUModel
}

func (p *semiObliviousPlan) Route(*demand.Matrix) (*pdrouting.Routing, error) {
	return p.static, nil
}

func (p *semiObliviousPlan) Cost() Cost { return p.cost }

// Adapt re-solves the rates on the fixed oblivious path sets for dm and
// returns whichever of (adapted, static) has the lower max utilization on
// dm — so adaptation can only help, never hurt.
func (p *semiObliviousPlan) Adapt(dm *demand.Matrix) (*pdrouting.Routing, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.model.SetDemands(dm); err != nil {
		// dm has the wrong size, or sends traffic toward a destination the
		// box never does.
		return nil, fmt.Errorf("strategy: semi-oblivious Adapt: %w", err)
	}
	_, flows, _, err := p.model.Solve(&lp.SolveOptions{Basis: p.model.CrashBasis()})
	if err != nil {
		return nil, fmt.Errorf("strategy: semi-oblivious rate re-solve: %w", err)
	}

	adapted, err := pdrouting.FromFlowSet(p.g, p.support, flows)
	if err != nil {
		return nil, fmt.Errorf("strategy: semi-oblivious flow decomposition: %w", err)
	}
	if adapted.MaxUtilization(dm) <= p.static.MaxUtilization(dm) {
		return adapted, nil
	}
	return p.static, nil
}
