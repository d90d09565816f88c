package oblivious

import (
	"context"
	"fmt"
	"math"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/gpopt"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/mcf"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/pdrouting"
)

// Params is the one parameter set of a COYOTE solve: loop effort plus
// evaluator tuning. exp.Config embeds it; coyote.Options and delta.Config
// convert to it once; strategy.Config is this type. Zero fields take the
// defaults of the half they reach (EvalConfig, Options).
type Params struct {
	OptIters int     // optimizer gradient steps per adversarial round (default 400)
	AdvIters int     // adversarial rounds (default 6)
	Samples  int     // random corner adversaries per evaluation (default 8)
	Eps      float64 // FPTAS accuracy for large-instance normalization (0 = default 0.1, else in (0, 0.5))
	Seed     int64
	Workers  int // worker-pool size (≤ 0 = GOMAXPROCS); never changes results
}

// EvalConfig is the evaluator half of the parameter set.
func (p Params) EvalConfig() EvalConfig {
	return EvalConfig{Eps: p.Eps, Samples: p.Samples, Seed: p.Seed, Workers: p.Workers}
}

// Options is the loop-effort half of the parameter set.
func (p Params) Options() Options {
	return Options{OptIters: p.OptIters, AdvIters: p.AdvIters}
}

// Options is what varies per Optimize call: effort and warm state.
// Graph, DAGs, box, seed and worker count are the evaluator's.
type Options struct {
	OptIters int // gradient steps per inner optimization (default 400)
	AdvIters int // outer adversarial iterations (default 6)
	// Warm, when non-nil and built for exactly the evaluator's (graph,
	// DAGs), is reused in place as the splitting optimizer: the loop resumes
	// its θ, Adam moments and step counter, refining the prior solution
	// instead of restarting from the near-ECMP init, and advances them — the
	// caller hands the optimizer over rather than a copy. Its tuning is
	// replaced. A non-matching Warm is ignored.
	Warm *gpopt.Optimizer
	// Carry seeds the finite scenario set with critical demand matrices
	// discovered by earlier recomputes (Report.Critical). Each is
	// re-normalized against the evaluator's OPTDAG; matrices that became
	// unroutable (e.g. after a failure) are silently dropped. This is the
	// Algorithm 1 critical-matrix accumulation extended across recomputes:
	// adversarial corners that still bind need not be re-discovered.
	Carry []*demand.Matrix
}

// Report summarizes an Optimize run.
type Report struct {
	Perf         Result // final worst-case evaluation of the returned routing
	OuterIters   int    // adversarial iterations executed
	ECMPFallback bool   // true if plain ECMP evaluated no worse and was returned
	// ECMPPerf is the worst-case ratio of traditional ECMP over the same
	// DAGs and uncertainty set, evaluated as part of the no-worse-than-ECMP
	// guarantee (so callers need not re-run the adversary for it).
	ECMPPerf float64
	// Critical lists the demand matrices of the finite scenario set in
	// accumulation order — the critical matrices of Algorithm 1. Feed them
	// back through Options.Carry to warm-start the next recompute's
	// adversary.
	Critical []*demand.Matrix
	// Warm is the optimizer holding the final log-ratio/Adam state: the
	// Options.Warm passed in when it matched, else a new one. Pass it back
	// through Options.Warm (to an evaluator over the same graph and
	// DAGs) to warm-start the next recompute.
	Warm *gpopt.Optimizer
}

// Err is the backstop behind demand.Box.Check: a run whose adversary could
// normalize no demand matrix at all (bounds that pass the input gate yet
// are unroutable within the DAGs) has no ratio to publish.
func (r *Report) Err() error {
	if math.IsInf(r.Perf.Ratio, 0) || math.IsNaN(r.Perf.Ratio) {
		return fmt.Errorf("coyote: no demand matrix within the bounds could be normalized (PERF %v)", r.Perf.Ratio)
	}
	return nil
}

// Optimize runs COYOTE's in-DAG traffic-splitting optimization (§V-C) over
// the evaluator's graph, DAGs and uncertainty box — the one way to compute
// a COYOTE routing. It alternates between optimizing the splitting ratios
// against a finite set of demand scenarios (gpopt) and growing that set
// with the current worst-case demand matrix (the evaluator's adversary),
// mirroring the critical-matrix accumulation of Algorithm 1 and the
// finite-set handling of the geometric program in Appendix C. The
// evaluator's worker count governs the whole loop.
//
// The returned routing is never worse (under the same evaluator) than
// traditional ECMP on the embedded shortest-path DAGs, fulfilling the
// paper's "no worse than standard OSPF/ECMP" guarantee.
//
// When ctx carries an obs.Tracer the loop records one span per stage —
// scenario seeding, each optimize/adversary round, the final ECMP guarantee
// — with the gpopt, adversary and lp.solve spans beneath them. Tracing never
// changes a result. strategy.Solve is the one caller outside tests.
func (ev *Evaluator) Optimize(ctx context.Context, opts Options) (*pdrouting.Routing, *Report) {
	if opts.AdvIters <= 0 {
		opts.AdvIters = 6
	}
	ctx, span := obs.StartSpan(ctx, "oblivious.optimize")
	defer span.End()

	g, dags := ev.G, ev.DAGs
	n := g.NumNodes()
	report := &Report{}
	optCfg := gpopt.Config{Iters: opts.OptIters, Workers: ev.cfg.Workers}

	var scenarios []gpopt.Scenario
	seen := make(map[uint64]bool)
	addScenario := func(D *demand.Matrix, norm float64) bool {
		if D == nil || D.Total() <= 0 || norm <= 0 || math.IsInf(norm, 1) {
			return false
		}
		h := hashMatrix(D)
		if seen[h] {
			return false
		}
		seen[h] = true
		scenarios = append(scenarios, gpopt.NewScenario(g, D, norm))
		report.Critical = append(report.Critical, D)
		return true
	}

	// Seed scenarios: the box extremes and the geometric midpoint (the
	// base matrix of a margin box).
	seedCtx, seedSpan := obs.StartSpan(ctx, "oblivious.seed")
	maxCorner := ev.Box.Max.Clone()
	addScenario(maxCorner, ev.OptDAG(maxCorner))
	mid := ev.Box.Midpoint()
	addScenario(mid, ev.OptDAG(mid))

	// Carry-over: critical matrices from earlier recomputes enter the
	// finite set immediately (re-normalized for these DAGs), so adversarial
	// corners that still bind are not re-discovered over several rounds.
	for _, D := range opts.Carry {
		if D != nil && D.N == n {
			addScenario(D, ev.OptDAG(D))
		}
	}

	opt := opts.Warm
	if opt != nil && opt.Matches(g, dags) {
		opt.SetConfig(optCfg)
	} else {
		opt = gpopt.New(g, dags, optCfg)
	}
	report.Warm = opt

	// Seed the scenario set with the adversary's verdict on the initial
	// (near-ECMP) routing so the first optimization round already sees the
	// demand patterns that hurt traditional splitting.
	const topK = 4
	for _, res := range ev.PerfTopCtx(seedCtx, opt.Routing(), topK) {
		addScenario(res.WorstDM, res.Norm)
	}
	seedSpan.Attr("scenarios", len(scenarios)).End()

	var bestRouting *pdrouting.Routing
	bestRes := Result{Ratio: math.Inf(1)}
	for iter := 0; iter < opts.AdvIters; iter++ {
		report.OuterIters++
		roundCtx, roundSpan := obs.StartSpan(ctx, "oblivious.round")
		roundSpan.Attr("iter", iter).Attr("scenarios", len(scenarios))
		opt.RunCtx(roundCtx, scenarios)
		r := opt.Routing()
		top := ev.PerfTopCtx(roundCtx, r, topK)
		res := top[0]
		if res.Ratio < bestRes.Ratio {
			bestRes = res
			bestRouting = r
		}
		anyNew := false
		for _, cand := range top {
			if addScenario(cand.WorstDM, cand.Norm) {
				anyNew = true
			}
		}
		roundSpan.Attr("ratio", res.Ratio).Attr("new_scenarios", anyNew).End()
		if !anyNew {
			break // adversary found nothing new
		}
	}
	// ECMP guarantee: traditional equal splitting over the embedded
	// shortest-path DAGs is a point of the solution space; never return
	// anything that evaluates worse.
	ecmpCtx, ecmpSpan := obs.StartSpan(ctx, "oblivious.ecmp_guarantee")
	ecmp := ECMPOnDAGs(g, dags)
	ecmpRes := ev.PerfTopCtx(ecmpCtx, ecmp, 1)[0]
	ecmpSpan.Attr("ratio", ecmpRes.Ratio).End()
	report.ECMPPerf = ecmpRes.Ratio
	if ecmpRes.Ratio < bestRes.Ratio {
		bestRes = ecmpRes
		bestRouting = ecmp
		report.ECMPFallback = true
	}
	if bestRouting == nil {
		bestRouting = ecmp
		bestRes = ecmpRes
		report.ECMPFallback = true
	}
	report.Perf = bestRes
	return bestRouting, report
}

// ECMPOnDAGs builds traditional ECMP — equal splitting over shortest-path
// next-hops under the graph's current weights — expressed over the given
// (typically augmented) DAGs so it can be evaluated and compared in the
// same normalization. Augmentation-only edges carry ratio zero.
func ECMPOnDAGs(g *graph.Graph, dags []*dagx.DAG) *pdrouting.Routing {
	r := pdrouting.NewZero(g, dags)
	for t := range dags {
		spMember := dags[t].Tree(g).ShortestPathEdges(g)
		for u := 0; u < g.NumNodes(); u++ {
			if u == t {
				continue
			}
			var hops []graph.EdgeID
			for _, id := range dags[t].OutEdges(g, graph.NodeID(u)) {
				if spMember[id] {
					hops = append(hops, id)
				}
			}
			if len(hops) == 0 {
				// The augmented DAG contains the SP DAG, so this only
				// happens for nodes that cannot reach t at all; fall back
				// to uniform over whatever DAG edges exist.
				hops = dags[t].OutEdges(g, graph.NodeID(u))
				if len(hops) == 0 {
					continue
				}
			}
			share := 1 / float64(len(hops))
			for _, id := range hops {
				r.Phi[t][id] = share
			}
		}
	}
	return r
}

// BaseRouting computes the paper's "Base" baseline: the demands-aware
// optimal routing for a single base matrix (no uncertainty), realized as
// splitting ratios within the given DAGs. Figures 6–8 show how quickly it
// degrades as actual demands drift from the base. eps is the FPTAS accuracy
// past DefaultExactNodeLimit nodes (0 = default 0.1, otherwise inside
// (0, 0.5)).
func BaseRouting(g *graph.Graph, dags []*dagx.DAG, base *demand.Matrix, eps float64) (*pdrouting.Routing, error) {
	if err := mcf.CheckEps(eps); err != nil {
		return nil, err
	}
	if eps == 0 {
		eps = 0.1
	}
	var flows [][]float64
	var err error
	if g.NumNodes() <= DefaultExactNodeLimit {
		_, flows, err = mcf.MinMLUExact(g, dags, base)
	} else {
		_, flows, err = mcf.MinMLUApprox(g, dags, base, eps)
	}
	if err != nil {
		return nil, err
	}
	return pdrouting.FromFlowSet(g, dags, flows)
}
