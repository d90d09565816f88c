package coyote_test

import (
	"errors"
	"testing"

	coyote "github.com/coyote-te/coyote"
)

// ring builds an n-node unit ring.
func ring(n int) *coyote.Topology {
	t := coyote.NewTopology()
	ids := make([]coyote.NodeID, n)
	for i := range ids {
		ids[i] = t.AddNode(string(rune('a' + i)))
	}
	for i := range ids {
		t.AddLink(ids[i], ids[(i+1)%n], 1, 1)
	}
	return t
}

// TestComputeRejectsMismatchedBounds: bounds built for a topology of
// another size used to index out of range — for oversized bounds inside a
// worker goroutine, where no caller can recover. Compute must return the
// typed error instead, at any worker count.
func TestComputeRejectsMismatchedBounds(t *testing.T) {
	t3, t4 := ring(3), ring(4)
	for _, workers := range []int{1, 4} {
		for _, tc := range []struct {
			name       string
			topo, for_ *coyote.Topology
		}{
			{"3-node bounds on 4 nodes", t4, t3},
			{"4-node bounds on 3 nodes", t3, t4},
		} {
			bounds := coyote.MarginBounds(coyote.GravityDemands(tc.for_, 1), 2)
			_, err := coyote.New(tc.topo, bounds, coyote.Options{OptimizerIters: 20, AdversarialIters: 1, Workers: workers}).Compute()
			var be *coyote.BoundsError
			if !errors.As(err, &be) {
				t.Errorf("workers=%d, %s: err = %v, want a *BoundsError", workers, tc.name, err)
			}
		}
	}
}

// TestUnnormalisableBoundsRejected: an all-zero box has no performance
// ratio. Compute already refused it; NewSession used to hand back a session
// with Perf = -Inf whose event log could no longer be marshalled.
func TestUnnormalisableBoundsRejected(t *testing.T) {
	topo := ring(4)
	zero := coyote.ObliviousBounds(topo, 0)
	var be *coyote.BoundsError
	if _, err := coyote.New(topo, zero).Compute(); !errors.As(err, &be) {
		t.Errorf("Compute: err = %v, want a *BoundsError", err)
	}
	if _, err := coyote.NewSession(topo, zero); !errors.As(err, &be) {
		t.Errorf("NewSession: err = %v, want a *BoundsError", err)
	}
}
