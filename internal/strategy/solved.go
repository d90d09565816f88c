package strategy

import (
	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/pdrouting"
)

// Solved is one solved COYOTE configuration — the single value behind
// Engine.Compute's Config, the portfolio's coyote columns, every failover
// scenario and a session's live, base and precomputed state. Ev names the
// topology, DAGs and uncertainty box the configuration was solved for and
// owns the box-independent normalization caches; the embedded Report carries
// PERF, the ECMP guarantee, the critical matrices and the warm optimizer.
type Solved struct {
	Ev      *oblivious.Evaluator
	Routing *pdrouting.Routing
	*oblivious.Report
}

// Solve is the one COYOTE solve: the §V-C adversarial loop over ev, refused
// when no demand matrix within the box could be normalized (Report.Err).
// Re-solving a held configuration for another box is Solve on
// p.Ev.WithBox(box): every OPTDAG and max-flow normalization already paid for
// is kept, and opts carries the warm optimizer and the matrices to start from.
func Solve(ev *oblivious.Evaluator, opts oblivious.Options) (*Solved, error) {
	r, rep := ev.Optimize(opts)
	if err := rep.Err(); err != nil {
		return nil, err
	}
	return &Solved{Ev: ev, Routing: r, Report: rep}, nil
}

// Coyote runs Fig. 5 up to the lies: augmented shortest-path DAGs on g, then
// Solve against box. Inputs are the caller's to Check — failover feeds it
// survivors whose failed router is deliberately isolated.
func Coyote(g *graph.Graph, box *demand.Box, cfg Config) (*Solved, error) {
	ev := oblivious.NewEvaluator(g, dagx.BuildAll(g, dagx.Augmented), box, cfg.EvalConfig())
	return Solve(ev, cfg.Options())
}

// Route returns the oblivious routing for every matrix.
func (p *Solved) Route(*demand.Matrix) (*pdrouting.Routing, error) { return p.Routing, nil }

// Cost reports the installed DAG state and the scenarios the loop gathered.
func (p *Solved) Cost() Cost {
	return Cost{DAGEdges: dagEdges(p.Routing), Scenarios: p.ScenarioCount}
}
