package demand

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/coyote-te/coyote/internal/graph"
)

func smallGraph() *graph.Graph {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddLink(a, b, 10, 1)
	g.AddLink(b, c, 5, 1)
	g.AddLink(a, c, 2, 1)
	return g
}

func TestMatrixSetAt(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 1, 2.5)
	if m.At(0, 1) != 2.5 {
		t.Fatalf("At(0,1) = %g, want 2.5", m.At(0, 1))
	}
	if m.At(1, 0) != 0 {
		t.Fatalf("At(1,0) should be 0")
	}
}

func TestMatrixSetPanics(t *testing.T) {
	m := NewMatrix(3)
	for _, fn := range []func(){
		func() { m.Set(1, 1, 1) },
		func() { m.Set(0, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestTotalAndScale(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 1, 1)
	m.Set(1, 2, 2)
	if m.Total() != 3 {
		t.Fatalf("Total = %g, want 3", m.Total())
	}
	m.Scale(2)
	if m.Total() != 6 {
		t.Fatalf("after Scale(2) Total = %g, want 6", m.Total())
	}
}

func TestPairsVisitsPositive(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 1, 1)
	m.Set(2, 0, 4)
	count := 0
	m.Pairs(func(s, tt graph.NodeID, d float64) {
		count++
		if d <= 0 {
			t.Error("Pairs visited non-positive entry")
		}
	})
	if count != 2 {
		t.Fatalf("Pairs visited %d entries, want 2", count)
	}
}

func TestToDestination(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 2, 5)
	m.Set(1, 2, 7)
	col := m.ToDestination(2)
	if col[0] != 5 || col[1] != 7 || col[2] != 0 {
		t.Fatalf("ToDestination = %v", col)
	}
}

func TestMarginBox(t *testing.T) {
	base := NewMatrix(2)
	base.Set(0, 1, 4)
	box := MarginBox(base, 2)
	if box.Min.At(0, 1) != 2 || box.Max.At(0, 1) != 8 {
		t.Fatalf("MarginBox bounds [%g, %g], want [2, 8]", box.Min.At(0, 1), box.Max.At(0, 1))
	}
	if !box.Contains(base) {
		t.Fatal("box must contain its base")
	}
	outside := base.Clone().Scale(3)
	if box.Contains(outside) {
		t.Fatal("box must not contain 3x base")
	}
}

func TestMarginBoxPanicsBelowOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MarginBox(0.5) should panic")
		}
	}()
	MarginBox(NewMatrix(2), 0.5)
}

func TestObliviousBox(t *testing.T) {
	box := ObliviousBox(3, 10)
	if box.Min.Total() != 0 {
		t.Fatal("oblivious box lower bound should be zero")
	}
	// 6 off-diagonal pairs, each capped at 10.
	if box.Max.Total() != 60 {
		t.Fatalf("oblivious box upper total = %g, want 60", box.Max.Total())
	}
}

func TestCorner(t *testing.T) {
	base := NewMatrix(2)
	base.Set(0, 1, 4)
	base.Set(1, 0, 6)
	box := MarginBox(base, 2)
	corner := box.Corner(func(s, tt graph.NodeID) bool { return s == 0 })
	if corner.At(0, 1) != 8 || corner.At(1, 0) != 3 {
		t.Fatalf("corner = [%g, %g], want [8, 3]", corner.At(0, 1), corner.At(1, 0))
	}
	if !box.Contains(corner) {
		t.Fatal("corner must lie in box")
	}
}

func TestSinglePair(t *testing.T) {
	m := SinglePair(4, 1, 3, 9)
	if m.At(1, 3) != 9 || m.Total() != 9 {
		t.Fatalf("SinglePair wrong: %v", m.D)
	}
}

func TestGravityProportionality(t *testing.T) {
	g := smallGraph()
	m := Gravity(g, 1)
	// outCap: a = 12, b = 15, c = 7. The largest product is a↔b = 180 → 1.0.
	if math.Abs(m.At(0, 1)-1) > 1e-12 {
		t.Fatalf("peak entry = %g, want 1", m.At(0, 1))
	}
	// Gravity symmetry: d_ab/d_ac = capB/capC.
	ratio := m.At(0, 1) / m.At(0, 2)
	if math.Abs(ratio-15.0/7.0) > 1e-9 {
		t.Fatalf("gravity ratio = %g, want %g", ratio, 15.0/7.0)
	}
	for s := 0; s < 3; s++ {
		if m.At(graph.NodeID(s), graph.NodeID(s)) != 0 {
			t.Fatal("diagonal must be zero")
		}
	}
}

func TestBimodalShape(t *testing.T) {
	g := smallGraph()
	big := graph.New()
	big.AddNodes(20)
	for i := 0; i < 20; i++ {
		big.AddLink(graph.NodeID(i), graph.NodeID((i+1)%20), 10, 1)
	}
	_ = g
	rng := rand.New(rand.NewSource(1))
	m := Bimodal(big, rng)
	var large, small int
	m.Pairs(func(s, tt graph.NodeID, d float64) {
		if d > 10 {
			large++
		} else {
			small++
		}
	})
	frac := float64(large) / float64(large+small)
	if frac < 0.03 || frac > 0.25 {
		t.Fatalf("elephant fraction = %g, want ≈0.1", frac)
	}
}

// Property: every random corner of a margin box lies inside the box, and
// scaling a matrix scales its total linearly.
func TestPropertyBoxCorners(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(sz%8)
		base := NewMatrix(n)
		for s := 0; s < n; s++ {
			for tt := 0; tt < n; tt++ {
				if s != tt {
					base.Set(graph.NodeID(s), graph.NodeID(tt), rng.Float64()*10)
				}
			}
		}
		margin := 1 + rng.Float64()*4
		box := MarginBox(base, margin)
		for i := 0; i < 5; i++ {
			if !box.Contains(box.Corner(func(s, t graph.NodeID) bool { return rng.Intn(2) == 1 })) {
				return false
			}
		}
		k := rng.Float64() * 3
		scaled := base.Clone().Scale(k)
		return math.Abs(scaled.Total()-k*base.Total()) < 1e-6*(1+base.Total())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBoxCheck(t *testing.T) {
	good := func() *Box { return MarginBox(SinglePair(3, 0, 1, 1), 2) }
	if err := good().Check(3); err != nil {
		t.Fatalf("valid box rejected: %v", err)
	}
	if err := ObliviousBox(3, 1).Check(3); err != nil {
		t.Fatalf("oblivious box rejected: %v", err)
	}
	edit := func(f func(b *Box)) *Box { b := good(); f(b); return b }
	bad := map[string]*Box{
		"nil":         nil,
		"nil max":     {Min: NewMatrix(3)},
		"all zero":    ObliviousBox(3, 0),
		"NaN":         edit(func(b *Box) { b.Max.D[1] = math.NaN() }),
		"infinite":    edit(func(b *Box) { b.Max.D[1] = math.Inf(1) }),
		"negative":    edit(func(b *Box) { b.Min.D[1] = -0.5 }),
		"crossed":     edit(func(b *Box) { b.Min.D[1] = 3 }),
		"short data":  edit(func(b *Box) { b.Max.D = b.Max.D[:4] }),
		"min/max dim": {Min: NewMatrix(3), Max: SinglePair(4, 0, 1, 1)},
	}
	for name, b := range bad {
		var be *BoxError
		if err := b.Check(3); !errors.As(err, &be) {
			t.Errorf("%s: err = %v, want a *BoxError", name, err)
		}
	}
	var be *BoxError
	if err := good().Check(4); !errors.As(err, &be) {
		t.Errorf("3-node box on 4 nodes: err = %v, want a *BoxError", err)
	}
}
