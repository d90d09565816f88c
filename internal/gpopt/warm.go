package gpopt

import (
	"math"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/pdrouting"
)

// This file is the warm-start handoff of the online controller
// (internal/delta): an Optimizer keeps its log-ratio parameters and Adam
// moments between runs, and can be seeded from an arbitrary routing, so a
// re-optimization after a demand drift or a failover swap resumes from the
// previous solution instead of the near-ECMP cold init.

// Matches reports whether the optimizer was built for exactly these DAGs
// over this graph (pointer identity), i.e. whether its parameters can be
// reused as a warm start for a re-optimization on them.
func (o *Optimizer) Matches(g *graph.Graph, dags []*dagx.DAG) bool {
	if o.g != g || len(o.dags) != len(dags) {
		return false
	}
	for i := range dags {
		if o.dags[i] != dags[i] {
			return false
		}
	}
	return true
}

// SetConfig replaces the optimizer's iteration count and worker-pool size
// without touching θ or the Adam state — the warm re-optimization typically
// runs far fewer iterations than the cold one.
func (o *Optimizer) SetConfig(cfg Config) {
	o.cfg = cfg.withDefaults()
}

// minRatioLog floors log(φ) when seeding θ from a routing, so ratios the
// source routing zeroed out stay representable (softmax never emits an
// exact zero) yet effectively negligible.
const minRatioLog = -18.0

// NewFromRouting creates an optimizer whose initial parameters reproduce
// the given routing: for every node with positive outgoing ratio mass,
// θ = log φ (softmax of log-ratios returns the ratios themselves), floored
// at minRatioLog for zeroed edges. Nodes the routing leaves unassigned keep
// the standard near-ECMP initialization. The failover path of the online
// controller uses this to refine a precomputed post-failure configuration
// instead of re-optimizing from scratch.
func NewFromRouting(g *graph.Graph, dags []*dagx.DAG, cfg Config, r *pdrouting.Routing) *Optimizer {
	o := New(g, dags, cfg)
	for t := range o.sweeps {
		phi := r.Phi[t]
		for i := range o.sweeps[t].node {
			out := o.outs(t, i)
			sum := 0.0
			for _, id := range out {
				sum += phi[id]
			}
			if sum <= 0 {
				continue // unassigned node: keep the ECMP-ish default
			}
			for _, id := range out {
				v := math.Log(phi[id] / sum)
				if math.IsInf(v, -1) || v < minRatioLog {
					v = minRatioLog
				}
				o.theta[t][id] = v
			}
		}
	}
	return o
}
