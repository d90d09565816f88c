package exp

import (
	"fmt"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/par"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/strategy"
	"github.com/coyote-te/coyote/internal/topo"
)

// The portfolio experiments are the ROADMAP's strategy head-to-head: every
// registered TE strategy (internal/strategy) built once per scenario cell
// and replayed against the same demand sequence. A cell's number is the
// worst ratio, over the sequence, of the strategy's max link utilization to
// the per-matrix OPT oracle's (exact min-MLU within the augmented DAGs) —
// 1.00 means demands-aware-optimal on every step, bigger is worse. Adaptive
// strategies (semi-oblivious, opt) re-solve rates per step via Apply.

// portfolioSteps is the length of each cell's diurnal demand sequence.
const portfolioSteps = 4

// portfolioCell is one scenario: a topology (possibly degraded by a
// failure set), its uncertainty box, and the demand sequence to replay.
type portfolioCell struct {
	name string
	g    *graph.Graph
	box  *demand.Box
	dms  []*demand.Matrix
}

// newPortfolioCell assembles a cell: margin-2 box around the base matrix,
// diurnal sequence sampled inside it.
func newPortfolioCell(name string, g *graph.Graph, model string, cfg Config) (portfolioCell, error) {
	base, err := baseMatrix(g, model, cfg.Seed)
	if err != nil {
		return portfolioCell{}, err
	}
	box := demand.MarginBox(base, 2)
	return portfolioCell{
		name: name,
		g:    g,
		box:  box,
		dms:  scen.TimeOfDay(box, portfolioSteps, 0.1, cfg.Seed),
	}, nil
}

// portfolioStrategies resolves cfg.Strategies (default: every registered
// strategy, sorted — so "opt" is always a column of the default table).
func portfolioStrategies(cfg Config) []string {
	if len(cfg.Strategies) > 0 {
		return cfg.Strategies
	}
	return strategy.Names()
}

// portfolioTable evaluates every strategy on every cell: rows are cells,
// columns are strategies, values are worst-over-sequence MLU ratios vs the
// OPT oracle.
func portfolioTable(title string, cells []portfolioCell, cfg Config) (*Table, error) {
	names := portfolioStrategies(cfg)
	// Stage 1: the per-step OPT oracle MLUs, one unit per cell.
	optMLU := make([][]float64, len(cells))
	if err := par.ForErr(cfg.Workers, len(cells), func(i int) error {
		oracle, err := strategy.New("opt", cfg.params())
		if err != nil {
			return err
		}
		plan, err := strategy.Build(oracle, cells[i].g, cells[i].box)
		if err != nil {
			return fmt.Errorf("cell %s: opt oracle: %w", cells[i].name, err)
		}
		mlus := make([]float64, len(cells[i].dms))
		for k, dm := range cells[i].dms {
			r, err := plan.Route(dm)
			if err != nil {
				return fmt.Errorf("cell %s step %d: opt oracle: %w", cells[i].name, k, err)
			}
			mlus[k] = r.MaxUtilization(dm)
		}
		optMLU[i] = mlus
		return nil
	}); err != nil {
		return nil, err
	}

	// Stage 2: one unit per (cell, strategy); each builds its plan and
	// replays the cell's sequence, keeping the worst ratio.
	type unit struct{ cell, strat int }
	units := make([]unit, 0, len(cells)*len(names))
	for ci := range cells {
		for si := range names {
			units = append(units, unit{ci, si})
		}
	}
	vals := make([]float64, len(units))
	if err := par.ForErr(cfg.Workers, len(units), func(u int) error {
		ci, si := units[u].cell, units[u].strat
		cell := cells[ci]
		s, err := strategy.New(names[si], cfg.params())
		if err != nil {
			return err
		}
		plan, err := strategy.Build(s, cell.g, cell.box)
		if err != nil {
			return fmt.Errorf("cell %s: %s: %w", cell.name, names[si], err)
		}
		worst := 0.0
		for k, dm := range cell.dms {
			r, err := strategy.Apply(names[si], plan, dm)
			if err != nil {
				return fmt.Errorf("cell %s step %d: %s: %w", cell.name, k, names[si], err)
			}
			if ratio := r.MaxUtilization(dm) / optMLU[ci][k]; ratio > worst {
				worst = ratio
			}
		}
		vals[u] = worst
		return nil
	}); err != nil {
		return nil, err
	}

	out := &Table{
		Title:   title,
		Columns: append([]string{"scenario"}, names...),
	}
	for ci, cell := range cells {
		row := []string{cell.name}
		for si := range names {
			row = append(row, f2(vals[ci*len(names)+si]))
		}
		out.AddRow(row...)
	}
	return out, nil
}

// Portfolio is the baseline head-to-head: real backbone × generated WAN,
// gravity × hotspot demand regimes, no failures.
func Portfolio(cfg Config) (*Table, error) {
	abilene, err := topo.Load("Abilene")
	if err != nil {
		return nil, err
	}
	// Barabási–Albert with m=2 is bridgeless at this size: a tree-like
	// topology (e.g. small Waxman draws) admits essentially one routing
	// and would flatten every column to 1.00.
	ba, err := scen.Generate("ba", scen.Params{N: 12, M: 2, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	var cells []portfolioCell
	for _, spec := range []struct {
		name  string
		g     *graph.Graph
		model string
	}{
		{"Abilene/gravity", abilene, "gravity"},
		{"ba-12/hotspot", ba, "hotspot"},
	} {
		cell, err := newPortfolioCell(spec.name, spec.g, spec.model, cfg)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell)
	}
	return portfolioTable(
		fmt.Sprintf("Portfolio head-to-head — worst MLU ratio vs OPT over %d diurnal steps, margin-2 box", portfolioSteps),
		cells, cfg)
}

// PortfolioFailures replays the head-to-head on failure-degraded
// survivors: links of a generated WAN are failed one at a time, every
// strategy is rebuilt on each survivor, and the sequence replayed there.
// Failures that partition the network are skipped — a partitioned survivor
// has no routing to compare — and the suite is capped at two survivor
// cells so the campaign stays golden-corpus fast.
func PortfolioFailures(cfg Config) (*Table, error) {
	g, err := scen.Generate("ba", scen.Params{N: 12, M: 2, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	suite, err := scen.KLinkFailures(g, 1)
	if err != nil {
		return nil, err
	}
	var cells []portfolioCell
	for _, fs := range suite {
		if len(cells) >= 2 {
			break
		}
		survivor := g.WithoutLinks(fs.Links)
		if !survivor.Connected() {
			continue
		}
		cell, err := newPortfolioCell(
			fmt.Sprintf("ba-12/%s", fs.Name),
			survivor, "gravity", cfg)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell)
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("exp: every single-link failure partitions the network (seed %d)", cfg.Seed)
	}
	return portfolioTable(
		fmt.Sprintf("Portfolio under failure — single-link survivors, worst MLU ratio vs OPT over %d diurnal steps", portfolioSteps),
		cells, cfg)
}
