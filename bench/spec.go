package main

// The names this benchmark can emit. BENCHMARK.json at the repo root lists
// the same names with their regression bounds; the tests in this directory
// keep the two in step. The "moves / on / bypassed" columns of the layer
// table are the predictions a later performance issue is judged against
// (choosing-metrics guide §3): which end-to-end metric a layer metric should
// move, on which workloads, and where no change is predicted.

const (
	coldGeant   = "cold-geant"
	scaleBA42   = "scale-ba42"
	onlineNSF   = "online-nsf"
	sweepGolden = "sweep-golden"
)

// workloadNames lists the workloads in the order they run; README.md and
// BENCHMARK.json say what one op of each is and why it exists.
var workloadNames = []string{coldGeant, scaleBA42, onlineNSF, sweepGolden}

func isWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

type metricSpec struct {
	Name, Unit, Better string
}

// endToEnd metrics are defined on every workload and are never zero.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"op_p50_s", "s", "lower"},
	{"fast_p50_s", "s", "lower"},
	{"perf_ratio", "ratio", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
}

type layerSpec struct {
	metricSpec
	Moves    string   // the end-to-end metric this layer metric should move
	On       []string // workloads where the layer does the work
	Bypassed []string // workloads where the prediction is no change
}

var strategyNames = []string{"coyote", "coyote-fptas", "cspf", "ecmp", "gpopt", "localsearch", "omw", "opt", "semi-oblivious"}

var perLayer = buildLayerTable()

func buildLayerTable() []layerSpec {
	cold := []string{coldGeant, scaleBA42}
	all := workloadNames
	notSweep := []string{coldGeant, scaleBA42, onlineNSF}
	var t []layerSpec
	add := func(moves string, on, bypassed []string, ms ...metricSpec) {
		for _, m := range ms {
			t = append(t, layerSpec{m, moves, on, bypassed})
		}
	}
	c := func(n string) metricSpec { return metricSpec{n, "count", "lower"} }
	s := func(n string) metricSpec { return metricSpec{n, "s", "lower"} }
	us := func(n string) metricSpec { return metricSpec{n, "us", "lower"} }
	hi := func(n, unit string) metricSpec { return metricSpec{n, unit, "higher"} }

	add("op_p50_s", []string{coldGeant, onlineNSF, sweepGolden}, []string{scaleBA42},
		c("lp.solves_per_op"), c("lp.pivots_per_op"), c("lp.phase1_pivots_per_op"),
		c("lp.dual_pivots_per_op"), c("lp.refactorizations_per_op"),
		hi("lp.warm_hit_rate", "share"), hi("lp.dual_hit_rate", "share"), c("lp.dense_fallbacks"))
	add("op_p50_s", []string{coldGeant}, []string{scaleBA42, onlineNSF, sweepGolden},
		s("lp.cold_solve_s"), s("lp.warm_resolve_s"), hi("lp.pivots_per_s", "1/s"))
	add("op_p50_s", cold, []string{sweepGolden},
		s("oblivious.adversary_s"), c("oblivious.adversary_calls"), s("oblivious.seed_s"),
		s("oblivious.ecmp_guarantee_s"), c("oblivious.rounds"), c("oblivious.scenarios"))
	add("perf_ratio", cold, []string{sweepGolden},
		metricSpec{"oblivious.ecmp_fallback_share", "share", "lower"})
	add("op_p50_s", []string{coldGeant}, []string{scaleBA42},
		s("mcf.exact_solve_s"), c("mcf.exact_pivots_per_solve"))
	add("op_p50_s", []string{scaleBA42}, []string{coldGeant, onlineNSF, sweepGolden},
		s("mcf.fptas_solve_s"))
	add("alloc_mb_per_op", []string{scaleBA42}, []string{coldGeant, onlineNSF, sweepGolden},
		c("mcf.fptas_allocs_per_solve"), metricSpec{"mcf.fptas_mb_per_solve", "MB", "lower"})
	add("perf_ratio", []string{scaleBA42}, []string{onlineNSF, sweepGolden},
		metricSpec{"mcf.fptas_gap", "ratio", "lower"})
	add("op_p50_s", []string{coldGeant, onlineNSF}, []string{scaleBA42},
		s("gpopt.run_s"), c("gpopt.steps"), us("gpopt.step_us"), c("gpopt.allocs_per_step"))
	add("op_p50_s", nil, all,
		s("spf.all_dst_s"), s("spf.repair_s"), c("spf.affected_nodes_per_event"),
		s("dagx.build_all_s"), c("dagx.edges_total"), us("pdrouting.maxutil_us"))
	add("fast_p50_s", notSweep, []string{sweepGolden},
		s("wcmp.apply_s"), c("wcmp.virtual_links"), s("fibbing.synthesize_s"),
		s("fibbing.verify_s"), c("fibbing.fake_nodes"), us("ospf.lsdb_spf_us"))
	add("fast_p50_s", []string{onlineNSF}, []string{coldGeant, scaleBA42, sweepGolden},
		s("fibbing.diff_s"), c("fibbing.churn_per_lies"))
	add("setup_s", []string{onlineNSF}, []string{coldGeant, scaleBA42, sweepGolden},
		s("failover.precompute_s"), c("failover.plans"))
	add("fast_p50_s", []string{onlineNSF}, []string{coldGeant, scaleBA42, sweepGolden},
		hi("failover.swap_hit_rate", "share"), s("delta.fail_s"), s("delta.lies_s"))
	add("op_p50_s", []string{onlineNSF}, []string{coldGeant, scaleBA42, sweepGolden},
		s("delta.update_s"), s("delta.recover_s"), hi("delta.warm_share", "share"),
		c("delta.outer_iters_per_event"), c("delta.scenarios_per_event"))
	for _, name := range strategyNames {
		add("op_p50_s", []string{sweepGolden}, notSweep, s("strategy.build_s."+name))
	}
	add("op_p50_s", []string{sweepGolden}, notSweep,
		us("strategy.adapt_us"), s("localsearch.optimize_s"),
		s("sweep.unit_p50_s"), s("sweep.unit_max_s"), metricSpec{"sweep.cache_put_ms", "ms", "lower"})
	add("fast_p50_s", []string{sweepGolden}, notSweep,
		metricSpec{"sweep.cache_get_ms", "ms", "lower"}, hi("sweep.cache_hit_rate", "share"),
		metricSpec{"sweep.bytes_per_unit", "B", "lower"})
	add("op_p50_s", nil, all,
		c("par.tasks_per_op"), c("par.loops_per_op"), s("par.queue_wait_s"),
		hi("par.speedup_w2", "ratio"), us("obs.snapshot_us"),
		us("serve.state_get_us"), us("serve.metrics_get_us"))
	add("setup_s", []string{scaleBA42}, nil, s("scen.generate_s"))
	add("setup_s", []string{coldGeant, onlineNSF}, nil, s("topo.load_s"))
	add("alloc_mb_per_op", all, nil,
		c("go.allocs_per_op"), c("go.gc_cycles_per_op"),
		metricSpec{"go.gc_pause_ms_per_op", "ms", "lower"})
	add("op_p50_s", nil, all,
		metricSpec{"trace.unattributed_share", "share", "lower"},
		metricSpec{"obs.trace_overhead_share", "share", "lower"})
	return t
}
