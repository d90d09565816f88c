package wcmp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/pdrouting"
)

// quantizeFresh is quantize on fresh buffers.
func quantizeFresh(ratios []float64, maxMult int) ([]int, error) {
	best := make([]int, len(ratios))
	if err := quantize(best, make([]int, len(ratios)), ratios, maxMult); err != nil {
		return nil, err
	}
	return best, nil
}

func TestQuantizeFig1d(t *testing.T) {
	// The paper's Fig. 1d: ratios 2/3 and 1/3 realized with multiplicities
	// 2 and 1 (one extra virtual link).
	m, err := quantizeFresh([]float64{2.0 / 3, 1.0 / 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := m[0] + m[1]
	if float64(m[0])/float64(total) != 2.0/3 {
		t.Fatalf("multiplicities %v do not realize 2/3:1/3", m)
	}
}

func TestQuantizeExactWhenRepresentable(t *testing.T) {
	m, err := quantizeFresh([]float64{0.5, 0.25, 0.25}, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, x := range m {
		total += x
	}
	for i, r := range []float64{0.5, 0.25, 0.25} {
		if math.Abs(float64(m[i])/float64(total)-r) > 1e-12 {
			t.Fatalf("m=%v total=%d does not realize %v exactly", m, total, r)
		}
	}
}

func TestQuantizeSingleNextHop(t *testing.T) {
	m, err := quantizeFresh([]float64{1}, 1)
	if err != nil || len(m) != 1 || m[0] != 1 {
		t.Fatalf("m=%v err=%v, want [1]", m, err)
	}
}

func TestQuantizeRejectsBadInput(t *testing.T) {
	if _, err := quantizeFresh([]float64{0.5, 0.5}, 0); err == nil {
		t.Fatal("maxMult 0 should fail")
	}
	if _, err := quantizeFresh([]float64{0.9, 0.3}, 3); err == nil {
		t.Fatal("ratios summing to 1.2 should fail")
	}
	if _, err := quantizeFresh([]float64{-0.1, 1.1}, 3); err == nil {
		t.Fatal("negative ratio should fail")
	}
}

// Property: quantization error shrinks (weakly) as the multiplicity budget
// grows, and at least one multiplicity is positive.
func TestPropertyQuantizeConverges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(4)
		ratios := make([]float64, k)
		sum := 0.0
		for i := range ratios {
			ratios[i] = rng.Float64() + 0.01
			sum += ratios[i]
		}
		for i := range ratios {
			ratios[i] /= sum
		}
		prevErr := math.Inf(1)
		for _, mm := range []int{2, 4, 8, 16} {
			m, err := quantizeFresh(ratios, mm)
			if err != nil {
				return false
			}
			total, any := 0, false
			for _, x := range m {
				total += x
				if x > 0 {
					any = true
				}
			}
			if !any {
				return false
			}
			e := maxErr(ratios, m, total)
			if e > prevErr+1e-12 {
				return false
			}
			prevErr = e
		}
		return prevErr <= 0.04 // 16 slots per hop: fine-grained
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func buildRouting(t *testing.T) (*graph.Graph, *pdrouting.Routing) {
	t.Helper()
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	g.AddLink(a, b, 1, 1)
	g.AddLink(a, c, 1, 1)
	g.AddLink(b, d, 1, 1)
	g.AddLink(c, d, 1, 1)
	dags := dagx.BuildAll(g, dagx.Augmented)
	r := pdrouting.Uniform(g, dags)
	// Skew a's split toward b: 0.7 / 0.3.
	ab, _ := g.FindEdge(a, b)
	ac, _ := g.FindEdge(a, c)
	if err := r.SetRatios(d, a, map[graph.EdgeID]float64{ab: 0.7, ac: 0.3}); err != nil {
		t.Fatal(err)
	}
	return g, r
}

func TestApplyProducesValidRouting(t *testing.T) {
	_, r := buildRouting(t)
	q, err := Apply(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Routing.Validate(); err != nil {
		t.Fatalf("quantized routing invalid: %v", err)
	}
	if q.VirtualLinks == 0 {
		t.Fatal("skewed ratios should need at least one virtual link")
	}
}

func TestApplyAccuracyImprovesWithBudget(t *testing.T) {
	g, r := buildRouting(t)
	a, _ := g.NodeByName("a")
	d, _ := g.NodeByName("d")
	ab, _ := g.FindEdge(a, graph.NodeID(1))
	var prev float64 = math.Inf(1)
	for _, k := range []int{1, 3, 10} {
		q, err := Apply(r, k)
		if err != nil {
			t.Fatal(err)
		}
		diff := math.Abs(q.Routing.Phi[d][ab] - 0.7)
		if diff > prev+1e-12 {
			t.Fatalf("error grew with budget %d: %g → %g", k, prev, diff)
		}
		prev = diff
	}
	if prev > 0.05 {
		t.Fatalf("10 virtual links should approximate 0.7 closely, err %g", prev)
	}
}

func TestApplyZeroBudgetDegradesToSinglePath(t *testing.T) {
	_, r := buildRouting(t)
	q, err := Apply(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.VirtualLinks != 0 {
		t.Fatalf("budget 0 used %d virtual links", q.VirtualLinks)
	}
	if err := q.Routing.Validate(); err != nil {
		t.Fatal(err)
	}
}
