package exp

import (
	"math"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/mcf"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/topo"
)

// TestBaseRoutingIsOptimal: on the golden corpus units, the Base routing is
// an optimal routing of its base matrix — its MLU there equals the LP
// optimum to 1e-9. Which optimal vertex MinMLUExact returns is not pinned
// (degenerate optima tie), and the Base column's PERF at margins above 1
// depends on it; this is what does not.
func TestBaseRoutingIsOptimal(t *testing.T) {
	for _, name := range []string{"Abilene", "Gambia", "NSF"} {
		g, err := topo.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		base, err := baseMatrix(g, "gravity", Quick().Seed)
		if err != nil {
			t.Fatal(err)
		}
		dags := dagx.BuildAll(g, dagx.Augmented)
		r, err := oblivious.BaseRouting(g, dags, base, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		opt, _, err := mcf.MinMLUExact(g, dags, base)
		if err != nil {
			t.Fatal(err)
		}
		if mlu := r.MaxUtilization(base); math.Abs(mlu-opt) > 1e-9*opt {
			t.Errorf("%s: Base routing's MLU on its base matrix %.15g, LP optimum %.15g", name, mlu, opt)
		}
	}
}
