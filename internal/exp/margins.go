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
		return demand.Bimodal(g, demand.DefaultBimodal(), rand.New(rand.NewSource(seed))), nil
	default:
		return scen.BaseMatrix(g, model, 1, seed)
	}
}

// SweepRow is one margin's outcome for one topology.
type SweepRow struct {
	Margin          float64
	ECMP            float64 // PERF of traditional ECMP
	Base            float64 // PERF of the demands-aware routing for the base matrix
	CoyoteOblivious float64 // PERF of COYOTE optimized with no demand knowledge
	CoyotePartial   float64 // PERF of COYOTE optimized within the margin box
}

// MarginSweep reproduces the Fig. 6/7/8 measurement for one topology and
// demand model: PERF of ECMP, Base, COYOTE-oblivious and
// COYOTE-partial-knowledge as the uncertainty margin grows, all normalized
// by the demands-aware optimum within the same augmented DAGs.
func MarginSweep(topoName, model string, cfg Config) ([]SweepRow, error) {
	g, err := topo.Load(topoName)
	if err != nil {
		return nil, err
	}
	base, err := baseMatrix(g, model, cfg.Seed)
	if err != nil {
		return nil, err
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	return marginSweep(g, dags, base, cfg)
}

func marginSweep(g *graph.Graph, dags []*dagx.DAG, base *demand.Matrix, cfg Config) ([]SweepRow, error) {
	ecmp := oblivious.ECMPOnDAGs(g, dags)
	baseRouting, err := oblivious.BaseRouting(g, dags, base, 0, cfg.Eps)
	if err != nil {
		return nil, err
	}

	// COYOTE-oblivious: optimized once, with no knowledge of the demands
	// (uncertainty set = all matrices up to an arbitrary cap; the
	// performance ratio is scale-invariant).
	var coyoteObl *pdrouting.Routing
	if cfg.Oblivious {
		oblBox := demand.ObliviousBox(g.NumNodes(), math.Max(base.MaxEntry(), 1))
		oblEv := cfg.evaluator(g, dags, oblBox)
		coyoteObl, _ = cfg.optimize(oblEv)
	}

	// Margins are independent data points: fan them across the worker
	// pool, each writing its own row (every margin builds its own seeded
	// evaluator, so rows are reproducible for any worker count).
	rows := make([]SweepRow, len(cfg.Margins))
	par.For(cfg.Workers, len(cfg.Margins), func(i int) {
		margin := cfg.Margins[i]
		box := demand.MarginBox(base, margin)
		ev := cfg.evaluator(g, dags, box)
		row := SweepRow{Margin: margin}
		row.ECMP = ev.Perf(ecmp).Ratio
		row.Base = ev.Perf(baseRouting).Ratio
		if coyoteObl != nil {
			row.CoyoteOblivious = ev.Perf(coyoteObl).Ratio
		}
		_, rep := cfg.optimize(ev)
		row.CoyotePartial = rep.Perf.Ratio
		rows[i] = row
	})
	return rows, nil
}

// sweepTable renders sweep rows in the paper's format.
func sweepTable(title string, rows []SweepRow, withObl bool) *Table {
	t := &Table{Title: title}
	if withObl {
		t.Columns = []string{"margin", "ECMP", "Base", "COYOTE-obl", "COYOTE-pk"}
	} else {
		t.Columns = []string{"margin", "ECMP", "Base", "COYOTE-pk"}
	}
	for _, r := range rows {
		if withObl {
			t.AddRow(f1(r.Margin), f2(r.ECMP), f2(r.Base), f2(r.CoyoteOblivious), f2(r.CoyotePartial))
		} else {
			t.AddRow(f1(r.Margin), f2(r.ECMP), f2(r.Base), f2(r.CoyotePartial))
		}
	}
	return t
}

// Fig6 reproduces Fig. 6: Geant, gravity model.
func Fig6(cfg Config) (*Table, error) {
	rows, err := MarginSweep("Geant", "gravity", cfg)
	if err != nil {
		return nil, err
	}
	return sweepTable("Fig. 6 — Geant, gravity model (PERF vs margin)", rows, cfg.Oblivious), nil
}

// Fig7 reproduces Fig. 7: Digex, gravity model.
func Fig7(cfg Config) (*Table, error) {
	rows, err := MarginSweep("Digex", "gravity", cfg)
	if err != nil {
		return nil, err
	}
	return sweepTable("Fig. 7 — Digex, gravity model (PERF vs margin)", rows, cfg.Oblivious), nil
}

// Fig8 reproduces Fig. 8: AS1755, bimodal model.
func Fig8(cfg Config) (*Table, error) {
	rows, err := MarginSweep("AS1755", "bimodal", cfg)
	if err != nil {
		return nil, err
	}
	return sweepTable("Fig. 8 — AS1755, bimodal model (PERF vs margin)", rows, cfg.Oblivious), nil
}

// Table1 reproduces Table I: the full corpus × margin sweep under the
// gravity model, reporting ECMP, Base, COYOTE-oblivious and
// COYOTE-partial-knowledge.
func Table1(cfg Config, names []string) (*Table, error) {
	if names == nil {
		names = topo.TableNames()
	}
	out := &Table{
		Title:   "Table I — PERF vs margin, gravity base model",
		Columns: []string{"network", "margin", "ECMP", "Base", "COYOTE-obl", "COYOTE-pk"},
	}
	sweeps := make([][]SweepRow, len(names))
	if err := par.ForErr(cfg.Workers, len(names), func(i int) (err error) {
		if sweeps[i], err = MarginSweep(names[i], "gravity", cfg); err != nil {
			return fmt.Errorf("exp: %s: %w", names[i], err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for i, rows := range sweeps {
		for _, r := range rows {
			out.AddRow(names[i], f1(r.Margin), f2(r.ECMP), f2(r.Base), f2(r.CoyoteOblivious), f2(r.CoyotePartial))
		}
	}
	return out, nil
}
