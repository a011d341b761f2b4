package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one end-to-end metric: what a user of the fuzzer sees.
// Bound is the share of the baseline median by which the metric may get
// worse before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
	// value reads the metric off one timed campaign.
	value func(*campaignResult) float64
}

var endToEnd = []metricDef{
	{"execs_per_sec", "1/s", "higher", 0.25, func(r *campaignResult) float64 {
		return float64(r.Executions) / r.campaignSec() * r.HostFactor
	}},
	{"bugs_found", "count", "higher", 0.10, func(r *campaignResult) float64 {
		return float64(r.Bugs)
	}},
	{"alloc_kb_per_exec", "KiB", "lower", 0.10, func(r *campaignResult) float64 {
		return r.AllocBytes / 1024 / float64(r.Executions)
	}},
	{"peak_rss_mb", "MiB", "lower", 0.25, func(r *campaignResult) float64 {
		return r.PeakRSSKB / 1024
	}},
	{"setup_s", "s", "lower", 0.25, func(r *campaignResult) float64 {
		return r.SetupSec / r.HostFactor
	}},
}

// layerDef is one per-layer metric of a traced run, named
// <module>.<metric>, with the end-to-end metric and workload it should
// move when that layer changes.
type layerDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string
	value  func(*layerAgg) float64
}

// layerAgg is a traced run's layer data pooled over its campaigns, plus
// the throughput of the traced and untraced twins of those campaigns.
type layerAgg struct {
	d                      *layerData
	untracedEPS, tracedEPS float64
}

func (a *layerAgg) c(name string) float64 { return a.d.Counts[name] }

// perCampaign is a counter's mean over the run's traced campaigns.
func (a *layerAgg) perCampaign(name string) float64 { return ratio(a.c(name), a.c("campaigns")) }

func (a *layerAgg) p50(name string) float64 {
	v, _ := percentile(a.d.Samples[name], 0.5)
	return v
}

func (a *layerAgg) p90(name string) float64 {
	v, _ := percentile(a.d.Samples[name], 0.9)
	return v
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

const (
	movesLight = "execs_per_sec on light-writes, light-pool"
	movesPool  = "execs_per_sec on light-pool only"
	movesPower = "execs_per_sec on planfuzz-power; setup_s"
	movesHeavy = "execs_per_sec on heavy"
	movesWrite = "execs_per_sec on light-writes only"
)

var perLayer = []layerDef{
	{"core.tasks", "count", "higher", movesLight, func(a *layerAgg) float64 { return a.perCampaign("tasks") }},
	{"core.execs_per_task", "count", "lower", movesLight, func(a *layerAgg) float64 { return ratio(a.c("executions"), a.c("tasks")) }},
	{"core.task_ms_p50", "ms", "lower", movesLight, func(a *layerAgg) float64 { return a.p50("core.task_ms") }},
	{"core.self_frac", "fraction", "lower", movesLight, func(a *layerAgg) float64 {
		return 1 - ratio(a.c("exec.busy_s"), a.c("campaign_call_s"))
	}},

	{"exec.execute_calls", "count", "lower", movesLight, func(a *layerAgg) float64 { return a.perCampaign("exec.execute_calls") }},
	{"exec.execute_us_p50", "us", "lower", movesLight, func(a *layerAgg) float64 { return a.p50("exec.execute_us") }},
	{"exec.execute_us_p90", "us", "lower", movesLight, func(a *layerAgg) float64 { return a.p90("exec.execute_us") }},
	{"exec.busy_frac", "fraction", "lower", movesLight, func(a *layerAgg) float64 { return ratio(a.c("exec.busy_s"), a.c("campaign_s")) }},
	{"exec.differential_ms_p50", "ms", "lower", movesLight, func(a *layerAgg) float64 { return a.p50("exec.differential_ms") }},
	{"exec.plan_differential_ms_p50", "ms", "lower", movesPower, func(a *layerAgg) float64 { return a.p50("exec.plan_differential_ms") }},
	{"exec.errors", "count", "lower", movesLight, func(a *layerAgg) float64 { return a.perCampaign("exec.errors") }},
	{"exec.faults", "count", "lower", movesLight, func(a *layerAgg) float64 { return a.perCampaign("exec.faults") }},
	{"exec.pool_overhead_us_per_exec", "us", "lower", movesPool, func(a *layerAgg) float64 {
		return ratio(a.c("exec.busy_s")*1e6-a.c("pool.child_us"), a.c("pool.execs"))
	}},
	{"exec.pool_mean_batch", "count", "higher", movesPool, func(a *layerAgg) float64 { return ratio(a.c("pool.execs"), a.c("pool.batches")) }},
	{"exec.pool_spawns", "count", "lower", movesPool, func(a *layerAgg) float64 { return a.perCampaign("pool.spawns") }},
	{"exec.pool_recycled", "count", "lower", movesPool, func(a *layerAgg) float64 { return a.perCampaign("pool.recycled") }},
	{"exec.wire_request_kb_p50", "KiB", "lower", movesPool, func(a *layerAgg) float64 { return a.p50("exec.wire_request_kb") }},
	{"exec.child_rss_mb", "MiB", "lower", movesPool, func(a *layerAgg) float64 { return a.p50("exec.child_rss_mb") }},

	{"jvm.run_us_p50", "us", "lower", movesLight, func(a *layerAgg) float64 { return a.p50("jvm.run_us") }},
	{"jvm.unattributed_frac", "fraction", "lower", movesLight, func(a *layerAgg) float64 {
		return ratio(a.c("jvm.unattributed_ns"), a.c("jvm.run_ns"))
	}},
	{"lang.check_us_p50", "us", "lower", movesLight, func(a *layerAgg) float64 { return a.p50("lang.check_us") }},
	{"lang.format_us_p50", "us", "lower", movesLight, func(a *layerAgg) float64 { return a.p50("lang.format_us") }},
	{"lang.clone_us_p50", "us", "lower", movesLight, func(a *layerAgg) float64 { return a.p50("lang.clone_us") }},
	{"lang.stmts_p50", "count", "lower", movesLight, func(a *layerAgg) float64 { return a.p50("lang.stmts") }},
	{"bytecode.compile_us_p50", "us", "lower", movesLight, func(a *layerAgg) float64 { return a.p50("bytecode.compile_us") }},
	{"bytecode.verify_us_p50", "us", "lower", movesLight, func(a *layerAgg) float64 { return a.p50("bytecode.verify_us") }},
	{"jit.compile_us_per_exec", "us", "lower", movesLight, func(a *layerAgg) float64 {
		return ratio(a.c("jit.compile_ns")/1e3, a.c("replay.executions"))
	}},
	{"jit.compiles_per_exec", "count", "lower", movesLight, func(a *layerAgg) float64 { return ratio(a.c("jit.compiles"), a.c("replay.executions")) }},
	{"jit.compile_us_p50", "us", "lower", movesLight, func(a *layerAgg) float64 { return a.p50("jit.compile_us") }},
	{"jit.cache_hit_rate", "fraction", "higher", movesPower, func(a *layerAgg) float64 { return ratio(a.c("jit.cache_hits"), a.c("jit.cache_lookups")) }},
	{"jit.cache_entries", "count", "lower", movesPower, func(a *layerAgg) float64 { return a.perCampaign("jit.cache_entries") }},
	{"vm.run_self_us_p50", "us", "lower", movesHeavy, func(a *layerAgg) float64 { return a.p50("vm.run_self_us") }},
	{"vm.steps_per_exec", "count", "lower", movesHeavy, func(a *layerAgg) float64 { return ratio(a.c("vm.steps"), a.c("replay.executions")) }},
	{"vm.ns_per_step", "ns", "lower", movesHeavy, func(a *layerAgg) float64 { return ratio(a.c("vm.run_self_ns"), a.c("vm.steps")) }},
	{"vm.allocs_per_exec", "count", "lower", movesHeavy, func(a *layerAgg) float64 { return ratio(a.c("vm.allocs"), a.c("replay.executions")) }},

	{"corpus.parse_cache_hit_rate", "fraction", "higher", movesPower, func(a *layerAgg) float64 {
		return ratio(a.c("corpus.parse_hits"), a.c("corpus.parse_lookups"))
	}},
	{"corpus.score_ms_per_seed", "ms", "lower", movesPower, func(a *layerAgg) float64 {
		return a.p50("corpus.score_ms") / poolSize
	}},
	{"corpus.schedule_arms", "count", "higher", movesPower, func(a *layerAgg) float64 { return a.perCampaign("corpus.schedule_arms") }},
	{"generate.seeds_emitted", "count", "higher", movesPower, func(a *layerAgg) float64 { return a.perCampaign("generate.seeds_emitted") }},

	{"harness.checkpoint_kb", "KiB", "lower", movesWrite, func(a *layerAgg) float64 { return a.p50("harness.checkpoint_kb") }},
	{"harness.checkpoint_save_ms_p50", "ms", "lower", movesWrite, func(a *layerAgg) float64 { return a.p50("harness.checkpoint_save_ms") }},
	{"harness.checkpoint_load_ms_p50", "ms", "lower", movesWrite, func(a *layerAgg) float64 { return a.p50("harness.checkpoint_load_ms") }},
	{"harness.checkpoint_share", "fraction", "lower", movesWrite, func(a *layerAgg) float64 {
		if len(a.d.Samples["harness.checkpoint_save_ms"]) == 0 {
			return 0
		}
		return ratio(a.c("tasks")*a.p50("harness.checkpoint_save_ms")/1e3, a.c("campaign_s"))
	}},
	{"triage.novel", "count", "higher", movesWrite, func(a *layerAgg) float64 { return a.perCampaign("triage.novel") }},
	{"triage.dup_frac", "fraction", "lower", movesWrite, func(a *layerAgg) float64 { return ratio(a.c("triage.duplicates"), a.c("triage.received")) }},
	{"triage.errors", "count", "lower", movesWrite, func(a *layerAgg) float64 { return a.perCampaign("triage.errors") }},
	{"triage.drain_s", "s", "lower", movesWrite, func(a *layerAgg) float64 { return a.perCampaign("triage.drain_s") }},
	{"reduce.finding_ms_p50", "ms", "lower", movesWrite, func(a *layerAgg) float64 { return a.p50("reduce.finding_ms") }},
	{"reduce.tested_cands_p50", "count", "lower", movesWrite, func(a *layerAgg) float64 { return a.p50("reduce.tested_cands") }},
	{"reduce.stmt_ratio_p50", "fraction", "lower", movesWrite, func(a *layerAgg) float64 { return a.p50("reduce.stmt_ratio") }},

	{"runtime.gc_cpu_frac", "fraction", "lower", "alloc_kb_per_exec and peak_rss_mb on heavy", func(a *layerAgg) float64 {
		return ratio(a.c("gc_cpu_s"), a.c("total_cpu_s"))
	}},
	{"runtime.gc_cycles_per_kexec", "count", "lower", "alloc_kb_per_exec and peak_rss_mb on heavy", func(a *layerAgg) float64 {
		return ratio(1000*a.c("gc_cycles"), a.c("executions"))
	}},
	{"trace.overhead_frac", "fraction", "lower", "none: the cost of tracing itself", func(a *layerAgg) float64 {
		return 1 - ratio(a.tracedEPS, a.untracedEPS)
	}},
}

// percentile is the nearest-rank p-quantile of vs. ok reports whether it
// may be quoted: the median always may, a higher percentile only when at
// least ten samples lie beyond it. Empty input gives (0, false).
func percentile(vs []float64, p float64) (v float64, ok bool) {
	n := len(vs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	rank = min(max(rank, 1), n)
	return s[rank-1], p <= 0.5 || n-rank >= 10
}

// quartiles returns the first quartile, median and third quartile of vs
// by the "exclusive" method of Python's statistics.quantiles(n=4), so
// spreads read the same as an outside check computes them. One value is
// its own quartiles.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	return ratio(q3-q1, math.Abs(q2))
}

// spreadRow prints one metric's median and quartiles over n values and,
// when it has a bound, marks it unstable if the interquartile range
// exceeds the bound.
func spreadRow(w io.Writer, name, unit string, vs []float64, bound float64) {
	q1, q2, q3 := quartiles(vs)
	mark := ""
	if bound > 0 {
		mark = fmt.Sprintf(" (bound %.0f%%)", 100*bound)
		if spread(vs) > bound {
			mark += "  unstable"
		}
	}
	fmt.Fprintf(w, "  %-20s %12.4f %-6s n=%-3d q1 %.4f  q3 %.4f  iqr %5.1f%%%s\n",
		name, q2, unit, len(vs), q1, q3, 100*spread(vs), mark)
}
