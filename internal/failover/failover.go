// Package failover precomputes COYOTE routing configurations for failure
// scenarios. §VI-A of the paper notes that, because COYOTE routing is
// static, "routing configurations for failure scenarios (e.g., every
// single link/node failure) can be precomputed"; this package does exactly
// that for single-link failures (Precompute) and single-node failures
// (PrecomputeNodes): for each surviving topology it rebuilds the augmented
// DAGs, re-optimizes the splitting ratios against the same uncertainty
// bounds, and records the achievable worst-case performance.
package failover

import (
	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/gpopt"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/par"
	"github.com/coyote-te/coyote/internal/pdrouting"
)

// Config tunes the per-scenario optimization (kept lighter than the
// primary configuration since there is one run per link).
type Config struct {
	OptIters int // optimizer gradient steps per scenario (default 250)
	AdvIters int // adversarial rounds per scenario (default 3)
	Samples  int // adversary corner samples (default 4)
	Eps      float64
	Seed     int64
	Workers  int // worker-pool size for scenarios and evaluation (≤ 0 = GOMAXPROCS); never changes results
}

func (c Config) withDefaults() Config {
	if c.OptIters <= 0 {
		c.OptIters = 250
	}
	if c.AdvIters <= 0 {
		c.AdvIters = 3
	}
	if c.Samples <= 0 {
		c.Samples = 4
	}
	return c
}

// Scenario is one precomputed single-link-failure configuration.
type Scenario struct {
	// Failed is the representative edge ID of the failed link in the
	// original graph.
	Failed graph.EdgeID
	// Disconnected reports that the failure partitions the network; no
	// routing is computed in that case.
	Disconnected bool
	// Survivor is the topology with the link removed (its own edge IDs).
	Survivor *graph.Graph
	// Routing is the re-optimized COYOTE configuration on Survivor.
	Routing *pdrouting.Routing
	// Perf and ECMPPerf are worst-case normalized utilizations on the
	// surviving topology.
	Perf     float64
	ECMPPerf float64
}

// Plan holds the normal-case routing plus one scenario per physical link.
type Plan struct {
	Normal     *pdrouting.Routing
	NormalPerf float64
	Scenarios  []Scenario
}

// Precompute builds the failure plan: the normal-case COYOTE configuration
// plus a re-optimized configuration for every single-link failure.
// Scenarios are computed in parallel.
func Precompute(g *graph.Graph, box *demand.Box, cfg Config) (*Plan, error) {
	cfg = cfg.withDefaults()
	evalCfg := oblivious.EvalConfig{Eps: cfg.Eps, Samples: cfg.Samples, Seed: cfg.Seed, Workers: cfg.Workers}
	opts := oblivious.Options{
		Optimizer: gpopt.Config{Iters: cfg.OptIters},
		Eval:      evalCfg,
		AdvIters:  cfg.AdvIters,
		Workers:   cfg.Workers,
	}

	dags := dagx.BuildAll(g, dagx.Augmented)
	ev := oblivious.NewEvaluator(g, dags, box, evalCfg)
	normal, rep := oblivious.OptimizeWithEvaluator(g, dags, ev, opts)
	plan := &Plan{Normal: normal, NormalPerf: rep.Perf.Ratio}

	links := g.Links()
	plan.Scenarios = make([]Scenario, len(links))
	par.For(cfg.Workers, len(links), func(i int) {
		plan.Scenarios[i] = computeScenario(g, box, links[i], opts, evalCfg)
	})
	return plan, nil
}

func computeScenario(g *graph.Graph, box *demand.Box, link graph.EdgeID, opts oblivious.Options, evalCfg oblivious.EvalConfig) Scenario {
	sc := Scenario{Failed: link}
	survivor := g.WithoutLink(link)
	sc.Survivor = survivor
	if !survivor.Connected() {
		sc.Disconnected = true
		return sc
	}
	dags := dagx.BuildAll(survivor, dagx.Augmented)
	ev := oblivious.NewEvaluator(survivor, dags, box, evalCfg)
	routing, rep := oblivious.OptimizeWithEvaluator(survivor, dags, ev, opts)
	sc.Routing = routing
	sc.Perf = rep.Perf.Ratio
	sc.ECMPPerf = ev.Perf(oblivious.ECMPOnDAGs(survivor, dags)).Ratio
	return sc
}

// WorstScenario returns the scenario with the highest post-failure PERF
// (ignoring disconnecting failures), or nil if none exists.
func (p *Plan) WorstScenario() *Scenario {
	var worst *Scenario
	for i := range p.Scenarios {
		sc := &p.Scenarios[i]
		if sc.Disconnected {
			continue
		}
		if worst == nil || sc.Perf > worst.Perf {
			worst = sc
		}
	}
	return worst
}

// NumDisconnecting counts failures that partition the network (bridges).
func (p *Plan) NumDisconnecting() int {
	n := 0
	for i := range p.Scenarios {
		if p.Scenarios[i].Disconnected {
			n++
		}
	}
	return n
}

// GroupScenario is one precomputed multi-link-failure configuration: a
// whole group of links (a shared-risk link group, or a sampled k-link
// combination from the scenario engine) fails at once and the survivors
// are re-optimized.
type GroupScenario struct {
	// Failed lists the representative edge IDs (in the original graph) of
	// the links that fail together.
	Failed []graph.EdgeID
	// Disconnected reports that the group's failure partitions the
	// network; no routing is computed in that case.
	Disconnected bool
	// Survivor is the topology with the group removed (its own edge IDs).
	Survivor *graph.Graph
	// Routing is the re-optimized COYOTE configuration on Survivor.
	Routing *pdrouting.Routing
	// Perf and ECMPPerf are worst-case normalized utilizations on the
	// surviving topology.
	Perf     float64
	ECMPPerf float64
	// DAGs are the survivor's augmented shortest-path DAGs the scenario
	// was optimized over, and Ev the evaluator holding the OPTDAG and
	// max-flow normalizations (exact-LP solves) paid for while
	// precomputing it. Both depend only on (Survivor, DAGs), never on the
	// uncertainty box, so a session swapping the scenario in
	// (delta.Session.Fail) reuses them via Ev.WithBox and the failure
	// reaction re-pays no normalization — that reuse is what makes the
	// warm reaction latency near-O(affected) end to end (DESIGN.md §12).
	DAGs []*dagx.DAG
	Ev   *oblivious.Evaluator
}

// PrecomputeGroups computes one scenario per group of failed links — the
// multi-link generalization of Precompute that internal/scen's SRLG
// and k-link failure suites feed. Groups are computed in parallel; an
// empty group yields the normal-topology configuration.
func PrecomputeGroups(g *graph.Graph, box *demand.Box, groups [][]graph.EdgeID, cfg Config) ([]GroupScenario, error) {
	cfg = cfg.withDefaults()
	evalCfg := oblivious.EvalConfig{Eps: cfg.Eps, Samples: cfg.Samples, Seed: cfg.Seed, Workers: cfg.Workers}
	opts := oblivious.Options{
		Optimizer: gpopt.Config{Iters: cfg.OptIters},
		Eval:      evalCfg,
		AdvIters:  cfg.AdvIters,
		Workers:   cfg.Workers,
	}
	out := make([]GroupScenario, len(groups))
	par.For(cfg.Workers, len(groups), func(i int) {
		out[i] = computeGroupScenario(g, box, groups[i], opts, evalCfg)
	})
	return out, nil
}

func computeGroupScenario(g *graph.Graph, box *demand.Box, group []graph.EdgeID, opts oblivious.Options, evalCfg oblivious.EvalConfig) GroupScenario {
	sc := GroupScenario{Failed: append([]graph.EdgeID(nil), group...)}
	survivor := g.WithoutLinks(group)
	sc.Survivor = survivor
	if !survivor.Connected() {
		sc.Disconnected = true
		return sc
	}
	dags := dagx.BuildAll(survivor, dagx.Augmented)
	ev := oblivious.NewEvaluator(survivor, dags, box, evalCfg)
	routing, rep := oblivious.OptimizeWithEvaluator(survivor, dags, ev, opts)
	sc.Routing = routing
	sc.Perf = rep.Perf.Ratio
	sc.ECMPPerf = ev.Perf(oblivious.ECMPOnDAGs(survivor, dags)).Ratio
	sc.DAGs = dags
	sc.Ev = ev
	return sc
}

// NodeScenario is one precomputed single-node-failure configuration: the
// failed router is isolated (its links removed) and its demands drop out
// of the uncertainty set; the rest of the network is re-optimized.
type NodeScenario struct {
	Failed       graph.NodeID
	Disconnected bool // the survivors are no longer mutually reachable
	Routing      *pdrouting.Routing
	Perf         float64
}

// PrecomputeNodes builds per-node failure configurations ("every single
// link/node failure can be precomputed", §VI-A). The failed node's own
// demands are zeroed; scenarios whose survivors are partitioned are marked
// Disconnected.
func PrecomputeNodes(g *graph.Graph, box *demand.Box, cfg Config) ([]NodeScenario, error) {
	cfg = cfg.withDefaults()
	evalCfg := oblivious.EvalConfig{Eps: cfg.Eps, Samples: cfg.Samples, Seed: cfg.Seed, Workers: cfg.Workers}
	opts := oblivious.Options{
		Optimizer: gpopt.Config{Iters: cfg.OptIters},
		Eval:      evalCfg,
		AdvIters:  cfg.AdvIters,
		Workers:   cfg.Workers,
	}
	out := make([]NodeScenario, g.NumNodes())
	par.For(cfg.Workers, g.NumNodes(), func(v int) {
		out[v] = computeNodeScenario(g, box, graph.NodeID(v), opts, evalCfg)
	})
	return out, nil
}

func computeNodeScenario(g *graph.Graph, box *demand.Box, failed graph.NodeID, opts oblivious.Options, evalCfg oblivious.EvalConfig) NodeScenario {
	sc := NodeScenario{Failed: failed}
	// Remove every link incident to the failed node.
	survivor := g
	for {
		removed := false
		for _, id := range survivor.Links() {
			e := survivor.Edge(id)
			if e.From == failed || e.To == failed {
				survivor = survivor.WithoutLink(id)
				removed = true
				break
			}
		}
		if !removed {
			break
		}
	}
	if !survivorsConnected(survivor, failed) {
		sc.Disconnected = true
		return sc
	}
	// Zero the failed node's demands in the box.
	min := box.Min.Clone()
	max := box.Max.Clone()
	n := min.N
	for u := 0; u < n; u++ {
		min.D[int(failed)*n+u] = 0
		min.D[u*n+int(failed)] = 0
		max.D[int(failed)*n+u] = 0
		max.D[u*n+int(failed)] = 0
	}
	sbox := demand.NewBox(min, max)
	dags := dagx.BuildAll(survivor, dagx.Augmented)
	ev := oblivious.NewEvaluator(survivor, dags, sbox, evalCfg)
	routing, rep := oblivious.OptimizeWithEvaluator(survivor, dags, ev, opts)
	sc.Routing = routing
	sc.Perf = rep.Perf.Ratio
	return sc
}

// survivorsConnected reports whether all nodes other than failed remain
// mutually reachable.
func survivorsConnected(g *graph.Graph, failed graph.NodeID) bool {
	n := g.NumNodes()
	if n <= 2 {
		return true
	}
	start := graph.NodeID(0)
	if start == failed {
		start = 1
	}
	reach := func(forward bool) int {
		seen := make([]bool, n)
		seen[start] = true
		stack := []graph.NodeID{start}
		count := 1
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			var ids []graph.EdgeID
			if forward {
				ids = g.Out(u)
			} else {
				ids = g.In(u)
			}
			for _, id := range ids {
				var v graph.NodeID
				if forward {
					v = g.Edge(id).To
				} else {
					v = g.Edge(id).From
				}
				if v != failed && !seen[v] {
					seen[v] = true
					count++
					stack = append(stack, v)
				}
			}
		}
		return count
	}
	want := n - 1
	return reach(true) == want && reach(false) == want
}
