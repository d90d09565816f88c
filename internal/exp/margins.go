package exp

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/par"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/topo"
)

// baseMatrix builds a base demand model for a topology: the §VI-B pair
// (gravity, bimodal) exactly as recorded in EXPERIMENTS.md, plus the
// scenario-engine workloads (hotspot, flash, uniform) of internal/scen.
func baseMatrix(g *graph.Graph, model string, seed int64) (*demand.Matrix, error) {
	switch model {
	case "gravity":
		return demand.Gravity(g, 1), nil
	case "bimodal":
		return demand.Bimodal(g, rand.New(rand.NewSource(seed))), nil
	default:
		return scen.BaseMatrix(g, model, 1, seed)
	}
}

// input is what an experiment on one topology starts from: the graph, its
// base matrix under a demand model, and the augmented DAGs it evaluates on.
type input struct {
	g    *graph.Graph
	base *demand.Matrix
	dags []*dagx.DAG // nil unless built: see newInput
	seed int64
}

// newInput is the one way an experiment builds its input on g. The DAGs
// are built only when augment is set: failover, scen-srlg, the portfolio
// cells and fig9 solve on graphs whose DAGs they build elsewhere.
func newInput(g *graph.Graph, model string, cfg Config, augment bool) (*input, error) {
	base, err := baseMatrix(g, model, cfg.Seed)
	if err != nil {
		return nil, err
	}
	in := &input{g: g, base: base, seed: cfg.Seed}
	if augment {
		in.dags = dagx.BuildAll(g, dagx.Augmented)
	}
	return in, nil
}

// loadInput is newInput on a corpus topology.
func loadInput(name, model string, cfg Config, augment bool) (*input, error) {
	g, err := topo.Load(name)
	if err != nil {
		return nil, err
	}
	return newInput(g, model, cfg, augment)
}

// scenInput is newInput on a topology the named generator draws from p at
// cfg.Seed.
func scenInput(gen string, p scen.Params, model string, cfg Config, augment bool) (*input, error) {
	p.Seed = cfg.Seed
	g, err := scen.Generate(gen, p)
	if err != nil {
		return nil, err
	}
	return newInput(g, model, cfg, augment)
}

// day returns the margin-2 box around the base matrix that failover,
// scen-srlg, scen-grid-day, serve-drift and the portfolio cells run in
// and, when steps > 0, a seeded diurnal sequence of that many matrices
// sampled inside it.
func (in *input) day(steps int) (*demand.Box, []*demand.Matrix) {
	box := demand.MarginBox(in.base, 2)
	if steps <= 0 {
		return box, nil
	}
	return box, scen.TimeOfDay(box, steps, 0.1, in.seed)
}

// marginTable is the per-margin fan-out: row i is cfg.Margins[i] followed
// by cells(cfg.Margins[i]). Margins are independent data points, each
// building its own seeded evaluator, so they spread across the worker pool
// and the rows do not depend on the worker count.
func marginTable(title string, cols []string, cfg Config, cells func(margin float64) ([]string, error)) (*Table, error) {
	rows := make([][]string, len(cfg.Margins))
	if err := par.ForErr(cfg.Workers, len(cfg.Margins), func(i int) error {
		row, err := cells(cfg.Margins[i])
		rows[i] = append([]string{f1(cfg.Margins[i])}, row...)
		return err
	}); err != nil {
		return nil, err
	}
	return &Table{Title: title, Columns: append([]string{"margin"}, cols...), Rows: rows}, nil
}

// sweepColumns are the columns SweepGraph fills after "margin".
func sweepColumns(cfg Config) []string {
	if cfg.Oblivious {
		return []string{"ECMP", "Base", "COYOTE-obl", "COYOTE-pk"}
	}
	return []string{"ECMP", "Base", "COYOTE-pk"}
}

// SweepGraph is the margin sweep of Figs. 6–8 and Table I on an arbitrary
// topology under a named demand model: PERF of ECMP, Base, (with
// cfg.Oblivious) COYOTE-oblivious and COYOTE-partial-knowledge as the
// uncertainty margin grows, all normalized by the demands-aware optimum
// within the same augmented DAGs. It backs fig6–fig8, table1, the scen-*
// sweeps, the corpus/scen/file units of internal/sweep and
// coyote-scen sweep.
func SweepGraph(title string, g *graph.Graph, model string, cfg Config) (*Table, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if !g.Connected() {
		return nil, fmt.Errorf("exp: topology %q is not strongly connected", title)
	}
	in, err := newInput(g, model, cfg, true)
	if err != nil {
		return nil, err
	}
	ecmp := oblivious.ECMPOnDAGs(g, in.dags)
	baseRouting, err := oblivious.BaseRouting(g, in.dags, in.base, 0, cfg.Eps)
	if err != nil {
		return nil, err
	}
	// COYOTE-oblivious: optimized once, with no knowledge of the demands
	// (uncertainty set = all matrices up to an arbitrary cap; the
	// performance ratio is scale-invariant).
	var coyoteObl *pdrouting.Routing
	if cfg.Oblivious {
		oblBox := demand.ObliviousBox(g.NumNodes(), math.Max(in.base.MaxEntry(), 1))
		coyoteObl, _ = cfg.optimize(cfg.evaluator(g, in.dags, oblBox))
	}
	return marginTable(fmt.Sprintf("%s, %s model (PERF vs margin)", title, model), sweepColumns(cfg), cfg,
		func(margin float64) ([]string, error) {
			ev := cfg.evaluator(g, in.dags, demand.MarginBox(in.base, margin))
			row := []string{f2(ev.Perf(ecmp).Ratio), f2(ev.Perf(baseRouting).Ratio)}
			if coyoteObl != nil {
				row = append(row, f2(ev.Perf(coyoteObl).Ratio))
			}
			_, rep := cfg.optimize(ev)
			return append(row, f2(rep.Perf.Ratio)), nil
		})
}

// corpusSweep is SweepGraph on one corpus topology, titled
// "<fig> — <name>, <model> model (PERF vs margin)": the registry rows of
// Figs. 6–8, and table1's per-network sweep.
func corpusSweep(fig, name, model string) runner {
	return func(cfg Config) (*Table, error) {
		g, err := topo.Load(name)
		if err != nil {
			return nil, err
		}
		return SweepGraph(fig+" — "+name, g, model, cfg)
	}
}

// table1 reproduces Table I: SweepGraph under the gravity model on every
// named network, each row prefixed with its network.
func table1(cfg Config, names []string) (*Table, error) {
	sweeps := make([]*Table, len(names))
	if err := par.ForErr(cfg.Workers, len(names), func(i int) (err error) {
		// Only the rows are kept, so the sweep's title does not matter.
		if sweeps[i], err = corpusSweep("Table I", names[i], "gravity")(cfg); err != nil {
			return fmt.Errorf("exp: %s: %w", names[i], err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	out := &Table{
		Title:   "Table I — PERF vs margin, gravity base model",
		Columns: append([]string{"network", "margin"}, sweepColumns(cfg)...),
	}
	for i, sweep := range sweeps {
		for _, row := range sweep.Rows {
			out.AddRow(append([]string{names[i]}, row...)...)
		}
	}
	return out, nil
}
