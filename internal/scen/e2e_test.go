package scen_test

// End-to-end acceptance for the scenario engine, exercised through the
// public API exactly as cmd/coyote-scen does: generated topologies are
// byte-deterministic, and topologies loaded from the real-format fixtures
// run through the full Compute pipeline.

import (
	"bytes"
	"path/filepath"
	"testing"

	coyote "github.com/coyote-te/coyote"
)

// tinyOpts keeps the Compute runs fast; the point is pipeline acceptance,
// not optimization quality.
var tinyOpts = coyote.Options{
	OptimizerIters:   40,
	AdversarialIters: 1,
	Samples:          2,
	Eps:              0.3,
	Seed:             1,
}

// TestGenerateWaxman50Deterministic is the acceptance criterion verbatim:
// `coyote-scen generate -gen waxman -n 50 -seed 7` twice produces
// byte-identical topology text.
func TestGenerateWaxman50Deterministic(t *testing.T) {
	render := func() []byte {
		topo, err := coyote.GenerateTopology("waxman", coyote.GenParams{N: 50, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := topo.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first, second := render(), render()
	if !bytes.Equal(first, second) {
		t.Fatal("waxman n=50 seed=7 is not byte-deterministic")
	}
	if len(first) == 0 {
		t.Fatal("empty topology text")
	}
}

// TestLoadedFixturesComputeEndToEnd loads the GraphML and SNDlib fixtures
// and runs each through Compute.
func TestLoadedFixturesComputeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("Compute runs in -short mode")
	}
	for _, fixture := range []string{"zoo5.graphml", "tiny.snd"} {
		t.Run(fixture, func(t *testing.T) {
			topo, err := coyote.ReadTopologyFile(filepath.Join("testdata", fixture))
			if err != nil {
				t.Fatal(err)
			}
			if err := topo.Validate(); err != nil {
				t.Fatal(err)
			}
			bounds := coyote.MarginBounds(coyote.GravityDemands(topo, 1), 2)
			cfg, err := coyote.New(topo, bounds, tinyOpts).Compute()
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Perf < 1-1e-6 {
				t.Errorf("PERF %g below 1", cfg.Perf)
			}
		})
	}
}

// TestGeneratedScenarioComputes runs a generated topology and demand model,
// wrapped in a margin box, through Compute.
func TestGeneratedScenarioComputes(t *testing.T) {
	if testing.Short() {
		t.Skip("Compute runs in -short mode")
	}
	topo, err := coyote.GenerateTopology("ring", coyote.GenParams{N: 8, M: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	base, err := coyote.BuildDemands(topo, "hotspot", 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := coyote.New(topo, coyote.MarginBounds(base, 2), tinyOpts).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Perf < 1-1e-6 || cfg.ECMPPerf < cfg.Perf-1e-6 {
		t.Errorf("PERF %g / ECMP %g out of range", cfg.Perf, cfg.ECMPPerf)
	}
}

func TestDemandModelsListed(t *testing.T) {
	models := coyote.DemandModels()
	if len(models) < 5 {
		t.Fatalf("models = %v", models)
	}
	topo, err := coyote.GenerateTopology("grid", coyote.GenParams{Rows: 3, Cols: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range models {
		if _, err := coyote.BuildDemands(topo, m, 1, 1); err != nil {
			t.Errorf("BuildDemands(%s): %v", m, err)
		}
	}
}
