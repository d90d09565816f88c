package fibbing

import (
	"context"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/ospf"
	"github.com/coyote-te/coyote/internal/topo"
)

// nameDiff is the reference diff: lies keyed by their rendered names in one
// map per synthesis, each list sorted by destination then name.
func nameDiff(prev, next *Synthesis) *LSADiff {
	byName := func(s *Synthesis) map[string]ospf.FakeNode {
		out := make(map[string]ospf.FakeNode)
		if s == nil {
			return out
		}
		for _, fakes := range s.LSDB.Fakes {
			for _, f := range fakes {
				out[f.Name()] = f
			}
		}
		return out
	}
	sortFakes := func(fs []ospf.FakeNode) {
		sort.Slice(fs, func(i, j int) bool {
			if fs[i].Dest != fs[j].Dest {
				return fs[i].Dest < fs[j].Dest
			}
			return fs[i].Name() < fs[j].Name()
		})
	}
	pm, nm := byName(prev), byName(next)
	d := &LSADiff{}
	for name, nf := range nm {
		pf, ok := pm[name]
		if !ok {
			d.Add = append(d.Add, nf)
			continue
		}
		if pf != nf {
			d.Update = append(d.Update, nf)
		}
	}
	for name, pf := range pm {
		if _, ok := nm[name]; !ok {
			d.Remove = append(d.Remove, pf)
		}
	}
	sortFakes(d.Add)
	sortFakes(d.Remove)
	sortFakes(d.Update)
	return d
}

// FuzzDiff realizes two seeded skewed routings on Abilene, the second over
// the intact graph (link 0) or over the graph without one link, and checks
// that Diff finds the reference diff's Add, Remove and Update sets, that
// VerifyDiff accepts it, and that a lie set diffed with itself is empty.
func FuzzDiff(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(0))
	f.Add(uint64(7), uint64(7), uint8(1))
	f.Add(uint64(3), uint64(11), uint8(6))
	g := topo.MustLoad("Abilene")
	realize := func(t *testing.T, g *graph.Graph, seed uint64) *Synthesis {
		rng := rand.New(rand.NewPCG(seed, 0))
		r := skewedOver(g, func(int, int, int) int { return 1 + rng.IntN(4) })
		_, syn, err := Realize(context.Background(), g, r, 3)
		if err != nil {
			t.Fatal(err)
		}
		return syn
	}
	f.Fuzz(func(t *testing.T, seedA, seedB uint64, link uint8) {
		gb := g
		if link > 0 {
			gb = g.WithoutLink(g.Links()[int(link-1)%len(g.Links())])
		}
		a, b := realize(t, g, seedA), realize(t, gb, seedB)
		d, want := Diff(a, b), nameDiff(a, b)
		for _, l := range [][2][]ospf.FakeNode{{d.Add, want.Add}, {d.Remove, want.Remove}, {d.Update, want.Update}} {
			slices.SortFunc(l[1], cmpLie)
			if !slices.Equal(l[0], l[1]) {
				t.Fatalf("Diff gave %v, the reference %v", l[0], l[1])
			}
		}
		if err := VerifyDiff(a, b, d); err != nil {
			t.Fatal(err)
		}
		if c := Diff(a, a).Churn() + Diff(b, b).Churn(); c != 0 {
			t.Fatalf("a lie set diffed with itself has churn %d", c)
		}
	})
}
