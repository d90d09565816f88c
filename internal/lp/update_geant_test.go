package lp_test

import (
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/lp"
	"github.com/coyote-te/coyote/internal/mcf"
	"github.com/coyote-te/coyote/internal/topo"
)

// TestUpdateMatchesRefactorizationGeant is TestUpdateMatchesRefactorization
// on the model the updates are for: Geant's OPTDAG LP (534 rows), whose α
// column couples every capacity row.
func TestUpdateMatchesRefactorizationGeant(t *testing.T) {
	g, err := topo.Load("Geant")
	if err != nil {
		t.Fatal(err)
	}
	mm := mcf.NewMinMLUModel(g, dagx.BuildAll(g, dagx.Augmented), demand.Gravity(g, 1))
	drift, factorizations, err := lp.UpdateDrift(mm.Model, 1, 150)
	if err != nil || drift > 1e-9 {
		t.Fatalf("updated factors drift %g from a fresh factorization: %v", drift, err)
	}
	if factorizations < 3 {
		t.Fatalf("%d factorizations in 150 pivots: the sequence no longer crosses refactorization boundaries", factorizations)
	}
}
