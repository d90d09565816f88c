package exp

import (
	"context"
	"fmt"
	"slices"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/par"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/strategy"
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

// newPortfolioCell assembles a cell on an experiment's input: the margin-2
// box and the diurnal sequence sampled inside it.
func newPortfolioCell(name string, in *input) portfolioCell {
	box, dms := in.day(portfolioSteps)
	return portfolioCell{name: name, g: in.g, box: box, dms: dms}
}

// replay builds the named strategy on the cell and returns its max link
// utilization at each step of the cell's sequence.
func (c portfolioCell) replay(name string, cfg Config) ([]float64, error) {
	s, err := strategy.New(name, cfg.Params)
	if err != nil {
		return nil, err
	}
	plan, err := strategy.Build(s, c.g, c.box)
	if err != nil {
		return nil, fmt.Errorf("cell %s: %s: %w", c.name, name, err)
	}
	mlus := make([]float64, len(c.dms))
	for k, dm := range c.dms {
		r, err := strategy.Apply(name, plan, dm)
		if err != nil {
			return nil, fmt.Errorf("cell %s step %d: %s: %w", c.name, k, name, err)
		}
		mlus[k] = r.MaxUtilization(dm)
	}
	return mlus, nil
}

// portfolioTable evaluates every strategy of cfg.Strategies (default:
// every registered strategy, sorted — so "opt" is always a column of the
// default table) on every cell: rows are cells, columns are strategies,
// values are worst-over-sequence MLU ratios vs the OPT oracle.
func portfolioTable(title string, cells []portfolioCell, cfg Config) (*Table, error) {
	names := cfg.Strategies
	if len(names) == 0 {
		names = strategy.Names()
	}
	// One unit per (cell, strategy), cell-major, over the columns and the
	// OPT oracle — replayed once per cell, whether or not it is a column.
	replayed := names
	if !slices.Contains(names, "opt") {
		replayed = append(slices.Clip(names), "opt")
	}
	opt := slices.Index(replayed, "opt")
	mlus := make([][]float64, len(cells)*len(replayed))
	if err := par.ForErr(cfg.Workers, len(mlus), func(u int) (err error) {
		mlus[u], err = cells[u/len(replayed)].replay(replayed[u%len(replayed)], cfg)
		return err
	}); err != nil {
		return nil, err
	}

	// Each cell keeps the worst ratio over its sequence.
	vals := make([]float64, len(cells)*len(names))
	for u := range vals {
		ci, si := u/len(names), u%len(names)
		optMLU := mlus[ci*len(replayed)+opt]
		for k, mlu := range mlus[ci*len(replayed)+si] {
			if ratio := mlu / optMLU[k]; ratio > vals[u] {
				vals[u] = ratio
			}
		}
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

// portfolio is the baseline head-to-head: real backbone × generated WAN,
// gravity × hotspot demand regimes, no failures.
func portfolio(_ context.Context, cfg Config) (*Table, error) {
	abilene, err := loadInput("Abilene", "gravity", cfg, false)
	if err != nil {
		return nil, err
	}
	// Barabási–Albert with m=2 is bridgeless at this size: a tree-like
	// topology (e.g. small Waxman draws) admits essentially one routing
	// and would flatten every column to 1.00.
	ba, err := scenInput("ba", scen.Params{N: 12, M: 2}, "hotspot", cfg, false)
	if err != nil {
		return nil, err
	}
	return portfolioTable(
		fmt.Sprintf("Portfolio head-to-head — worst MLU ratio vs OPT over %d diurnal steps, margin-2 box", portfolioSteps),
		[]portfolioCell{newPortfolioCell("Abilene/gravity", abilene), newPortfolioCell("ba-12/hotspot", ba)}, cfg)
}

// portfolioFailures replays the head-to-head on failure-degraded
// survivors: links of a generated WAN are failed one at a time, every
// strategy is rebuilt on each survivor, and the sequence replayed there.
// Failures that partition the network are skipped — a partitioned survivor
// has no routing to compare — and the suite is capped at two survivor
// cells so the campaign stays golden-corpus fast.
func portfolioFailures(_ context.Context, cfg Config) (*Table, error) {
	g, err := scen.Generate("ba", scen.Params{N: 12, M: 2, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	var cells []portfolioCell
	for _, fs := range scen.SingleLinkFailures(g) {
		if len(cells) >= 2 {
			break
		}
		survivor := g.WithoutLinks(fs.Links)
		if !survivor.Connected() {
			continue
		}
		in, err := newInput(survivor, "gravity", cfg, false)
		if err != nil {
			return nil, err
		}
		cells = append(cells, newPortfolioCell("ba-12/"+fs.Name, in))
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("exp: every single-link failure partitions the network (seed %d)", cfg.Seed)
	}
	return portfolioTable(
		fmt.Sprintf("Portfolio under failure — single-link survivors, worst MLU ratio vs OPT over %d diurnal steps", portfolioSteps),
		cells, cfg)
}
