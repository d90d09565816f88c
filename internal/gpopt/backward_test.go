package gpopt

import (
	"math"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/topo"
)

// backwardReference is the backward pass as it was before it read the
// forward pass's inflows and the per-step weight row: it re-runs the forward
// recurrence to recover inflows and divides w[e]/(capacity(e)·norm) per
// (destination, edge). Kept as the oracle TestBackwardMatchesReference pins
// the production pass against.
func backwardReference(o *Optimizer, t int, col []float64, phiT, inflow, gIn, w []float64, norm float64, gPhi []float64) {
	g := o.g
	d := o.dags[t]
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
		for _, id := range o.outsOf[t][u] {
			inflow[g.Edge(id).To] += inflow[u] * phiT[id]
		}
	}
	order := d.Order
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		if int(u) == t || inflow[u] == 0 {
			continue
		}
		for _, id := range o.outsOf[t][u] {
			to := g.Edge(id).To
			up := w[id]/(g.Edge(id).Capacity*norm) + gIn[to]
			gIn[u] += up * phiT[id]
			gPhi[id] += up * inflow[u]
		}
	}
}

// TestBackwardMatchesReference runs 50 Adam steps on Geant with the
// production backward pass and with backwardReference swapped in, and
// requires every θ to agree bit for bit, at one worker and at four.
func TestBackwardMatchesReference(t *testing.T) {
	g, err := topo.Load("Geant")
	if err != nil {
		t.Fatal(err)
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	n, nE := g.NumNodes(), g.NumEdges()
	var scenarios []Scenario
	for s := 0; s < 3; s++ {
		D := demand.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && (i+2*j+s)%4 != 0 {
					D.Set(graph.NodeID(i), graph.NodeID(j), 1+float64((i*j+s)%7))
				}
			}
		}
		scenarios = append(scenarios, NewScenario(g, D, 0.5+float64(s)))
	}
	for _, workers := range []int{1, 4} {
		cfg := Config{Iters: 50, Workers: workers}
		got := New(g, dags, cfg)
		got.Run(scenarios)

		ref := New(g, dags, cfg)
		sc := &ref.scratch
		inflow := sliceRows(make([]float64, n*n), n, n)
		sc.fnBackward = func(t int) {
			for _, ti := range sc.byDest[t] {
				si := sc.tasks[ti].si
				s := sc.scenarios[si]
				backwardReference(ref, t, s.Cols[t], sc.phi[t], inflow[t], sc.destGIn[t], sc.w[si*nE:(si+1)*nE], s.Norm, sc.grad[t])
			}
		}
		ref.Run(scenarios)

		for tt := range got.theta {
			for e := range got.theta[tt] {
				if math.Float64bits(got.theta[tt][e]) != math.Float64bits(ref.theta[tt][e]) {
					t.Fatalf("workers %d: theta[%d][%d] = %x, reference %x", workers, tt, e,
						math.Float64bits(got.theta[tt][e]), math.Float64bits(ref.theta[tt][e]))
				}
			}
		}
	}
}
