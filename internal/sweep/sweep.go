// Package sweep is the corpus-scale evaluation harness (DESIGN.md §8): it
// turns a full campaign — every registered experiment × every corpus /
// Topology Zoo / SNDlib topology × the generated-scenario suite — into a
// deterministic list of independent work units, runs them across the
// internal/par pool and across processes via a shard i/n protocol, and
// persists every unit's result in a content-addressed on-disk cache keyed
// by (topology bytes, unit identity, configuration, code fingerprint).
//
// The determinism contract extends the repo-wide one: a campaign's unit
// list is a pure function of its inputs, every unit's table is a pure
// function of (unit, Config), and the merged result stream is byte-
// identical for any shard count, worker count, or cache state. That is
// what makes the cache sound (hits are provably the bytes a fresh run
// would produce — Verify mode re-derives and compares them) and what
// makes the golden regression corpus (testdata/golden, the root
// golden_test.go) a tier-1-testable artifact.
package sweep

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/coyote-te/coyote/internal/exp"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/topo"
)

// Unit is one independent work unit of a campaign. A unit is self-
// contained: it carries everything needed to run it (and to key its cache
// entry) so a shard process needs only the unit list, not the loaders that
// built it.
type Unit struct {
	// ID is the unit's stable identity: "exp/<id>" for registry
	// experiments, "corpus/<topology>/<model>", "scen/<suite entry>", or
	// "file/<base name>/<model>". IDs are unique within a campaign and
	// campaigns keep units sorted by ID, so shard assignment and merged
	// output order are reproducible everywhere.
	ID string
	// Kind is "exp", "corpus", "scen", or "file".
	Kind string
	// Exp is the experiment registry ID (Kind "exp" only).
	Exp string
	// Topo is the canonical text serialization of the unit's topology
	// (sweep kinds only) — both the runnable input and the content-
	// addressed part of the cache key.
	Topo []byte
	// Model is the demand model swept over Topo (sweep kinds only).
	Model string
}

// Run executes the unit under cfg and returns its table, recording its
// span tree under ctx when it carries an obs.Tracer.
func (u Unit) Run(ctx context.Context, cfg exp.Config) (*exp.Table, error) {
	if u.Kind == "exp" {
		return exp.Run(ctx, u.Exp, cfg)
	}
	g, err := graph.ReadText(bytes.NewReader(u.Topo))
	if err != nil {
		return nil, fmt.Errorf("sweep: unit %s: bad topology bytes: %w", u.ID, err)
	}
	return exp.SweepGraph(ctx, u.ID, g, u.Model, cfg)
}

// Campaign is a named, fully enumerated sweep: a configuration plus the
// sorted unit list it applies to.
type Campaign struct {
	Name  string
	Cfg   exp.Config
	Units []Unit
}

// finalize sorts units by ID and rejects duplicates — the invariant the
// shard protocol and MergeResults rely on.
func finalize(name string, cfg exp.Config, units []Unit) (Campaign, error) {
	sort.Slice(units, func(i, j int) bool { return units[i].ID < units[j].ID })
	for i := 1; i < len(units); i++ {
		if units[i].ID == units[i-1].ID {
			return Campaign{}, fmt.Errorf("sweep: duplicate unit ID %q", units[i].ID)
		}
	}
	return Campaign{Name: name, Cfg: cfg, Units: units}, nil
}

// Experiments enumerates registry-experiment units. With no arguments it
// covers every registered experiment ID.
func Experiments(ids ...string) []Unit {
	if len(ids) == 0 {
		ids = exp.IDs()
	}
	units := make([]Unit, 0, len(ids))
	for _, id := range ids {
		units = append(units, Unit{ID: "exp/" + id, Kind: "exp", Exp: id})
	}
	return units
}

// Corpus enumerates margin-sweep units over built-in corpus topologies ×
// demand models. With nil names it covers the whole corpus.
func Corpus(names, models []string) ([]Unit, error) {
	if len(names) == 0 {
		names = topo.Names()
	}
	if len(models) == 0 {
		models = []string{"gravity"}
	}
	var units []Unit
	for _, name := range names {
		g, err := topo.Load(name)
		if err != nil {
			return nil, err
		}
		text, err := canonical(g)
		if err != nil {
			return nil, err
		}
		for _, model := range models {
			units = append(units, Unit{
				ID:    "corpus/" + name + "/" + model,
				Kind:  "corpus",
				Topo:  text,
				Model: model,
			})
		}
	}
	return units, nil
}

// Scenarios enumerates the generated-scenario suite (scen.StandardSuite)
// as units, materializing each generator's topology so the unit is
// self-contained. Optional names restrict the suite to the listed entries.
func Scenarios(seed int64, names ...string) ([]Unit, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var units []Unit
	for _, e := range scen.StandardSuite(seed) {
		if len(want) > 0 && !want[e.Name] {
			continue
		}
		g, err := scen.Generate(e.Gen, e.Params)
		if err != nil {
			return nil, fmt.Errorf("sweep: suite entry %s: %w", e.Name, err)
		}
		text, err := canonical(g)
		if err != nil {
			return nil, err
		}
		units = append(units, Unit{
			ID:    "scen/" + e.Name,
			Kind:  "scen",
			Topo:  text,
			Model: e.Model,
		})
	}
	if len(want) > 0 && len(units) != len(want) {
		return nil, fmt.Errorf("sweep: unknown suite entries in %v", names)
	}
	return units, nil
}

// Files enumerates units for every real-format topology file (Topology Zoo
// GraphML, SNDlib native, text) directly under dir, crossed with the given
// demand models. Files are taken in sorted name order; unknown formats are
// errors so a corpus directory cannot silently shrink.
func Files(dir string, models []string) ([]Unit, error) {
	if len(models) == 0 {
		models = []string{"gravity"}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var units []Unit
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		g, err := scen.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("sweep: %s: %w", path, err)
		}
		text, err := canonical(g)
		if err != nil {
			return nil, err
		}
		base := strings.TrimSuffix(ent.Name(), filepath.Ext(ent.Name()))
		for _, model := range models {
			units = append(units, Unit{
				ID:    "file/" + base + "/" + model,
				Kind:  "file",
				Topo:  text,
				Model: model,
			})
		}
	}
	return units, nil
}

func canonical(g *graph.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := g.WriteText(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// goldenExperiments is the registry subset cheap enough for the golden
// campaign (sub-second each under Quick); the corpus subset below sticks
// to the small backbones for the same reason.
var goldenExperiments = []string{
	"negative-np", "negative-path", "portfolio", "portfolio-failures",
	"running", "scen-grid-day", "scen-srlg", "scen-waxman",
}

var goldenCorpusTopos = []string{"Abilene", "Gambia", "NSF"}

var goldenSuiteEntries = []string{"grid-3x4-uniform", "ring-12-flash", "waxman-16-gravity"}

// Golden is the checked-in regression campaign: the Quick configuration
// over a fast cross-section of every unit kind. Its results live in
// testdata/golden and are pinned by the root golden_test.go; CI re-derives
// them on every push and fails on any numeric drift.
func Golden() (Campaign, error) {
	cfg := exp.Quick()
	units := Experiments(goldenExperiments...)
	corpus, err := Corpus(goldenCorpusTopos, []string{"gravity"})
	if err != nil {
		return Campaign{}, err
	}
	units = append(units, corpus...)
	suite, err := Scenarios(cfg.Seed, goldenSuiteEntries...)
	if err != nil {
		return Campaign{}, err
	}
	units = append(units, suite...)
	return finalize("golden", cfg, units)
}

// Quick is the smoke-scale campaign: every registered experiment, the
// whole corpus under the gravity model, and the full generated suite, all
// under the Quick configuration.
func Quick() (Campaign, error) {
	cfg := exp.Quick()
	units := Experiments()
	corpus, err := Corpus(nil, []string{"gravity"})
	if err != nil {
		return Campaign{}, err
	}
	units = append(units, corpus...)
	suite, err := Scenarios(cfg.Seed)
	if err != nil {
		return Campaign{}, err
	}
	units = append(units, suite...)
	return finalize("quick", cfg, units)
}

// Full is the paper-fidelity campaign: every experiment, the corpus under
// both §VI-B demand models, and the generated suite, under the Default
// configuration. topoDir, when non-empty, adds every real topology file in
// it (Topology Zoo / SNDlib) as file units.
func Full(topoDir string) (Campaign, error) {
	cfg := exp.Default()
	units := Experiments()
	corpus, err := Corpus(nil, []string{"gravity", "bimodal"})
	if err != nil {
		return Campaign{}, err
	}
	units = append(units, corpus...)
	suite, err := Scenarios(cfg.Seed)
	if err != nil {
		return Campaign{}, err
	}
	units = append(units, suite...)
	if topoDir != "" {
		files, err := Files(topoDir, []string{"gravity"})
		if err != nil {
			return Campaign{}, err
		}
		units = append(units, files...)
	}
	return finalize("full", cfg, units)
}

// Portfolio is the TE-strategy head-to-head campaign: the portfolio
// experiments (strategy × topology × demand regime × failure suite, every
// cell normalized by the OPT oracle) under the Quick configuration.
func Portfolio() (Campaign, error) {
	return finalize("portfolio", exp.Quick(), Experiments("portfolio", "portfolio-failures"))
}

// Named resolves a campaign by name ("golden", "quick", "full",
// "portfolio"); topoDir feeds the full campaign's file units.
func Named(name, topoDir string) (Campaign, error) {
	switch name {
	case "golden":
		return Golden()
	case "quick":
		return Quick()
	case "full":
		return Full(topoDir)
	case "portfolio":
		return Portfolio()
	default:
		return Campaign{}, fmt.Errorf("sweep: unknown campaign %q (golden, quick, full, portfolio)", name)
	}
}
