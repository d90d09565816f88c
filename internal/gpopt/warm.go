package gpopt

import (
	"fmt"
	"math"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/pdrouting"
)

// This file is the warm-start handoff of the online controller
// (internal/delta): an Optimizer's log-ratio parameters and Adam moments
// can be exported, re-imported, and re-seeded from an arbitrary routing,
// so a re-optimization after a demand drift or a failover swap resumes
// from the previous solution instead of the near-ECMP cold init.

// State is a deep snapshot of an Optimizer's warm-start parameters: the
// log-ratio variables θ and the Adam moment estimates, plus the Adam step
// counter the bias correction depends on. A State is only meaningful for
// the (graph, DAGs) shape it was exported from — ImportState validates
// dimensions but cannot detect a different topology of the same size.
type State struct {
	Theta [][]float64 // Theta[t][e], log-ratio per destination and edge
	M     [][]float64 // first Adam moment, same shape
	V     [][]float64 // second Adam moment, same shape
	Step  int         // Adam steps taken (bias-correction counter)
}

// ExportState deep-copies the optimizer's parameters and Adam state.
func (o *Optimizer) ExportState() *State {
	cp := func(src [][]float64) [][]float64 {
		out := make([][]float64, len(src))
		for i := range src {
			out[i] = append([]float64(nil), src[i]...)
		}
		return out
	}
	return &State{Theta: cp(o.theta), M: cp(o.m), V: cp(o.v), Step: o.step}
}

// ImportState restores a previously exported snapshot. The state's shape
// must match the optimizer's (same destination and edge counts).
func (o *Optimizer) ImportState(st *State) error {
	n := o.g.NumNodes()
	nE := o.g.NumEdges()
	check := func(name string, rows [][]float64) error {
		if len(rows) != n {
			return fmt.Errorf("gpopt: state %s has %d destinations, optimizer has %d", name, len(rows), n)
		}
		for t := range rows {
			if len(rows[t]) != nE {
				return fmt.Errorf("gpopt: state %s[%d] has %d edges, optimizer has %d", name, t, len(rows[t]), nE)
			}
		}
		return nil
	}
	if err := check("theta", st.Theta); err != nil {
		return err
	}
	if err := check("m", st.M); err != nil {
		return err
	}
	if err := check("v", st.V); err != nil {
		return err
	}
	for t := 0; t < n; t++ {
		copy(o.theta[t], st.Theta[t])
		copy(o.m[t], st.M[t])
		copy(o.v[t], st.V[t])
	}
	o.step = st.Step
	return nil
}

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
