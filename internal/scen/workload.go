package scen

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
)

// Demand workload suites beyond the paper's gravity and bimodal base
// models (§VI-B). Every workload is deterministic in its seed, and every
// base matrix is normalized so its peak entry equals peak — the evaluation
// metric (PERF) is scale-invariant, so peak only anchors the numeric
// range, exactly as in demand.Gravity.

// Models lists the demand-model names BaseMatrix accepts.
func Models() []string {
	return []string{"gravity", "bimodal", "hotspot", "flash", "uniform"}
}

// BaseMatrix builds a named base demand model over g. It extends the
// original gravity/bimodal pair with the scenario-engine workloads, so
// CLIs can expose a single -demand flag:
//
//	gravity  — capacity-product gravity model [22]
//	bimodal  — elephant/mouse bimodal model [23]
//	hotspot  — gravity plus a few overloaded destination routers
//	flash    — flash crowd: one destination drawing sudden demand from
//	           a random subset of sources on top of a gravity baseline
//	uniform  — equal demand between every pair
func BaseMatrix(g *graph.Graph, model string, peak float64, seed int64) (*demand.Matrix, error) {
	switch model {
	case "gravity":
		return demand.Gravity(g, peak), nil
	case "bimodal":
		m := demand.Bimodal(g, rand.New(rand.NewSource(seed)))
		return normalize(m, peak), nil
	case "hotspot":
		return Hotspot(g, peak, seed), nil
	case "flash":
		return FlashCrowd(g, peak, seed), nil
	case "uniform":
		m := demand.NewMatrix(g.NumNodes())
		for s := 0; s < m.N; s++ {
			for t := 0; t < m.N; t++ {
				if s != t {
					m.Set(graph.NodeID(s), graph.NodeID(t), peak)
				}
			}
		}
		return m, nil
	default:
		return nil, fmt.Errorf("scen: unknown demand model %q (want one of %v)", model, Models())
	}
}

func normalize(m *demand.Matrix, peak float64) *demand.Matrix {
	if mx := m.MaxEntry(); mx > 0 {
		m.Scale(peak / mx)
	}
	return m
}

// The hotspot workload's shape: max(1, n/hotspotDivisor) overloaded
// destination routers, each drawing hotspotBoost× its gravity share.
const (
	hotspotDivisor = 8
	hotspotBoost   = 8.0
)

// Hotspot builds the hotspot workload: a gravity baseline with a few
// destination routers (content caches, peering exits) drawing
// hotspotBoost× their gravity share. The hotspot set is a seeded uniform
// choice.
func Hotspot(g *graph.Graph, peak float64, seed int64) *demand.Matrix {
	n := g.NumNodes()
	hotspots := max(1, n/hotspotDivisor)
	rng := rand.New(rand.NewSource(seed))
	m := demand.Gravity(g, 1)
	for _, t := range rng.Perm(n)[:min(hotspots, n)] {
		for s := 0; s < n; s++ {
			if s != t {
				m.Set(graph.NodeID(s), graph.NodeID(t), m.At(graph.NodeID(s), graph.NodeID(t))*hotspotBoost)
			}
		}
	}
	return normalize(m, peak)
}

// The flash crowd's shape: flashSourceFraction of the other routers join
// it, each sending flashSurge× its gravity demand to the event destination.
const (
	flashSourceFraction = 0.5
	flashSurge          = 20.0
)

// FlashCrowd builds the flash-crowd workload: on top of a gravity
// baseline, a seeded random destination suddenly receives flashSurge×
// demand from a random subset of sources — the "everyone watches the same
// stream" pattern that breaks demand forecasts.
func FlashCrowd(g *graph.Graph, peak float64, seed int64) *demand.Matrix {
	n := g.NumNodes()
	rng := rand.New(rand.NewSource(seed))
	m := demand.Gravity(g, 1)
	perm := rng.Perm(n)
	dest := graph.NodeID(perm[0])
	crowd := perm[1 : 1+int(flashSourceFraction*float64(n-1))]
	for _, s := range crowd {
		src := graph.NodeID(s)
		m.Set(src, dest, m.At(src, dest)*flashSurge)
	}
	return normalize(m, peak)
}

// TimeOfDay samples a diurnal demand sequence inside an uncertainty box:
// step t's matrix sits at depth ½(1+sin(2πt/steps)) between box.Min and
// box.Max, jittered per entry by ±jitter of the interval (clamped to the
// box, so every returned matrix satisfies box.Contains). This is the
// workload for evaluating one static COYOTE configuration across a day of
// traffic: the box is the operator's uncertainty set, the sequence is
// what the day actually serves.
func TimeOfDay(box *demand.Box, steps int, jitter float64, seed int64) []*demand.Matrix {
	if steps <= 0 {
		steps = 24
	}
	if jitter < 0 {
		jitter = 0
	}
	rng := rand.New(rand.NewSource(seed))
	n := box.Min.N
	out := make([]*demand.Matrix, steps)
	for t := 0; t < steps; t++ {
		depth := 0.5 * (1 + math.Sin(2*math.Pi*float64(t)/float64(steps)))
		m := demand.NewMatrix(n)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				lo := box.Min.At(graph.NodeID(s), graph.NodeID(d))
				hi := box.Max.At(graph.NodeID(s), graph.NodeID(d))
				f := depth + jitter*(2*rng.Float64()-1)
				if f < 0 {
					f = 0
				} else if f > 1 {
					f = 1
				}
				m.Set(graph.NodeID(s), graph.NodeID(d), lo+f*(hi-lo))
			}
		}
		out[t] = m
	}
	return out
}
