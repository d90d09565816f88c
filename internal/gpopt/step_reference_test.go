package gpopt

import (
	"math"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/graph"
)

// scalarStepper is the gradient step as it ran before the lane kernel: one
// forward and one backward propagation per (scenario, destination) pair with
// demand, dense nE-wide reductions, per-destination Adam. It is the oracle
// the production step is pinned against bit for bit
// (TestStepMatchesScalarReference); it allocates freely and shares nothing
// with the optimizer it was cloned from but the graph and the DAGs.
type scalarStepper struct {
	g    *graph.Graph
	dags []*dagx.DAG
	outs [][][]graph.EdgeID // outs[t][u]: u's DAG out-edges toward t, graph.Out order

	theta, m, v [][]float64
	step        int
	phi, grad   [][]float64

	// recomputeInflow swaps backwardReference in for backward.
	recomputeInflow bool
}

// newScalarStepper clones o's parameters and Adam state into a stepper.
func newScalarStepper(o *Optimizer) *scalarStepper {
	n, nE := o.g.NumNodes(), o.g.NumEdges()
	clone := func(rows [][]float64) [][]float64 {
		out := sliceRows(make([]float64, n*nE), n, nE)
		for t := range rows {
			copy(out[t], rows[t])
		}
		return out
	}
	r := &scalarStepper{g: o.g, dags: o.dags, theta: clone(o.theta), m: clone(o.m), v: clone(o.v), step: o.step}
	r.outs = make([][][]graph.EdgeID, n)
	r.phi = sliceRows(make([]float64, n*nE), n, nE)
	r.grad = sliceRows(make([]float64, n*nE), n, nE)
	for t := 0; t < n; t++ {
		r.outs[t] = make([][]graph.EdgeID, n)
		for u := 0; u < n; u++ {
			for _, id := range o.g.Out(graph.NodeID(u)) {
				if o.dags[t].Member[id] {
					r.outs[t][u] = append(r.outs[t][u], id)
				}
			}
		}
	}
	return r
}

// run is Optimizer.Run without the closing objective.
func (r *scalarStepper) run(scenarios []Scenario, iters int) {
	work := false
	for _, s := range scenarios {
		for _, col := range s.Cols {
			work = work || col != nil
		}
	}
	if !work {
		return
	}
	for it := 0; it < iters; it++ {
		frac := float64(it) / float64(max(iters-1, 1))
		r.stepOnce(scenarios, tauStart*math.Pow(tauEnd/tauStart, frac))
	}
}

// materialize writes φ = softmax(θ) for destination t into r.phi[t].
func (r *scalarStepper) materialize(t int) {
	for u, out := range r.outs[t] {
		if len(out) == 0 || u == t {
			continue
		}
		logits := make([]float64, len(out))
		for i, id := range out {
			logits[i] = r.theta[t][id]
		}
		for i, p := range softmax(logits, nil) {
			r.phi[t][out[i]] = p
		}
	}
}

func (r *scalarStepper) stepOnce(scenarios []Scenario, tau float64) {
	n, nE := r.g.NumNodes(), r.g.NumEdges()
	for t := 0; t < n; t++ {
		r.materialize(t)
		clear(r.grad[t])
	}

	// Forward: every (scenario, destination) pair with demand, scenario-major.
	type task struct {
		si, t         int
		loads, inflow []float64
	}
	var tasks []task
	for si, s := range scenarios {
		for t := 0; t < n; t++ {
			if s.Cols[t] == nil {
				continue
			}
			tk := task{si: si, t: t, loads: make([]float64, nE), inflow: make([]float64, n)}
			r.forwardInto(t, s.Cols[t], r.phi[t], tk.loads, tk.inflow)
			tasks = append(tasks, tk)
		}
	}
	scLoads := sliceRows(make([]float64, len(scenarios)*nE), len(scenarios), nE)
	for _, tk := range tasks {
		for e := 0; e < nE; e++ {
			scLoads[tk.si][e] += tk.loads[e]
		}
	}
	utils := make([]float64, len(scenarios)*nE)
	for si, s := range scenarios {
		for e := 0; e < nE; e++ {
			utils[si*nE+e] = scLoads[si][e] / (r.g.Edge(graph.EdgeID(e)).Capacity * s.Norm)
		}
	}

	// Smooth-max gradient: w_i = exp(u_i/τ)/Σ.
	scaled := make([]float64, len(utils))
	for i, x := range utils {
		scaled[i] = x / tau
	}
	w := softmax(scaled, nil)
	wNorm := make([]float64, len(w))
	for si, s := range scenarios {
		for e := 0; e < nE; e++ {
			wNorm[si*nE+e] = w[si*nE+e] / (r.g.Edge(graph.EdgeID(e)).Capacity * s.Norm)
		}
	}

	// Backward: per destination, its tasks in scenario order.
	gIn := make([]float64, n)
	for t := 0; t < n; t++ {
		for _, tk := range tasks {
			if tk.t != t {
				continue
			}
			s := scenarios[tk.si]
			if r.recomputeInflow {
				backwardReference(r, t, s.Cols[t], r.phi[t], make([]float64, n), gIn, w[tk.si*nE:(tk.si+1)*nE], s.Norm, r.grad[t])
			} else {
				r.backward(t, r.phi[t], tk.inflow, gIn, wNorm[tk.si*nE:(tk.si+1)*nE], r.grad[t])
			}
		}
	}

	// φ-gradient → θ-gradient through the softmax Jacobian, then Adam.
	const beta1, beta2 = 0.9, 0.999
	r.step++
	bc1 := 1 - math.Pow(0.9, float64(r.step))
	bc2 := 1 - math.Pow(0.999, float64(r.step))
	for t := 0; t < n; t++ {
		for _, out := range r.outs[t] {
			if len(out) < 2 {
				continue // single-edge nodes have fixed φ = 1
			}
			dot := 0.0
			for _, id := range out {
				dot += r.grad[t][id] * r.phi[t][id]
			}
			for _, id := range out {
				gth := r.phi[t][id] * (r.grad[t][id] - dot)
				r.m[t][id] = beta1*r.m[t][id] + (1-beta1)*gth
				r.v[t][id] = beta2*r.v[t][id] + (1-beta2)*gth*gth
				mhat := r.m[t][id] / bc1
				vhat := r.v[t][id] / bc2
				r.theta[t][id] -= lr * mhat / (math.Sqrt(vhat) + 1e-12)
			}
		}
	}
}

// forwardInto propagates col toward destination t with ratios phiT, writing
// the per-edge loads into loads and the node inflows into inflow (both
// zeroed on entry).
func (r *scalarStepper) forwardInto(t int, col []float64, phiT, loads, inflow []float64) {
	for v, dem := range col {
		if v != t {
			inflow[v] = dem
		}
	}
	for _, u := range r.dags[t].Order {
		if int(u) == t || inflow[u] == 0 {
			continue
		}
		for _, id := range r.outs[t][u] {
			f := inflow[u] * phiT[id]
			loads[id] = f
			inflow[r.g.Edge(id).To] += f
		}
	}
}

// backward accumulates dLoss/dφ into gPhi for one (scenario, destination)
// task: inflow holds the node inflows its forward pass left behind, wNorm
// the scenario's upstream load gradients by edge (w[e]/(capacity(e)·Norm)).
// It walks the DAG in reverse topological order; gIn is overwritten scratch.
func (r *scalarStepper) backward(t int, phiT, inflow, gIn, wNorm, gPhi []float64) {
	clear(gIn)
	order := r.dags[t].Order
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		if int(u) == t || inflow[u] == 0 {
			continue
		}
		for _, id := range r.outs[t][u] {
			up := wNorm[id] + gIn[r.g.Edge(id).To]
			gIn[u] += up * phiT[id]
			gPhi[id] += up * inflow[u]
		}
	}
}

// backwardReference is the backward pass as it was before it read the
// forward pass's inflows and the per-step weight row: it re-runs the forward
// recurrence to recover inflows and divides w[e]/(capacity(e)·norm) per
// (destination, edge). Kept as the oracle TestBackwardMatchesReference pins
// the scalar backward pass (and through it the production one) against.
func backwardReference(r *scalarStepper, t int, col []float64, phiT, inflow, gIn, w []float64, norm float64, gPhi []float64) {
	g := r.g
	d := r.dags[t]
	for i := range inflow {
		inflow[i] = 0
		gIn[i] = 0
	}
	for v, dem := range col {
		if v != t {
			inflow[v] = dem
		}
	}
	for _, u := range d.Order {
		if int(u) == t || inflow[u] == 0 {
			continue
		}
		for _, id := range r.outs[t][u] {
			inflow[g.Edge(id).To] += inflow[u] * phiT[id]
		}
	}
	order := d.Order
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		if int(u) == t || inflow[u] == 0 {
			continue
		}
		for _, id := range r.outs[t][u] {
			to := g.Edge(id).To
			up := w[id]/(g.Edge(id).Capacity*norm) + gIn[to]
			gIn[u] += up * phiT[id]
			gPhi[id] += up * inflow[u]
		}
	}
}
