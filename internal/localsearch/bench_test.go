package localsearch

import (
	"testing"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/topo"
)

// BenchmarkReweight measures one weight search as the portfolio strategies
// run it — 3 rounds of 10·|E| moves against the margin-2 gravity box — on
// each corpus topology. Run with -benchmem: the evaluator builds its rows
// once per search, so allocations do not grow with the number of moves.
func BenchmarkReweight(b *testing.B) {
	for _, name := range []string{"Abilene", "NSF", "Geant"} {
		b.Run(name, func(b *testing.B) {
			g := topo.MustLoad(name)
			box := demand.MarginBox(demand.Gravity(g, 1), 2)
			for b.Loop() {
				if _, err := Reweight(g, box, 3, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
