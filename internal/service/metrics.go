package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/corpus"
	"repro/internal/exec"
	"repro/internal/harness"
)

// Registry is the daemon's metrics registry. It is hand-rolled — the
// daemon takes no dependency on a client library — and renders the
// Prometheus text exposition format, one family per registration, in
// registration order. Counters and the histogram are owned here and
// safe for concurrent use: campaign hooks feed them while /metrics
// scrapes them. Scrape-time series read values owned elsewhere (jobs,
// triage workers, the parse cache, the exec pool, the fleet's worker
// table) through callbacks. Callbacks run under the scrape lock, which
// keeps one scrape's snapshots from mixing with another's, so they
// must not call back into the registry.
type Registry struct {
	mu       sync.Mutex // serializes scrapes
	families []family
	onScrape []func()
}

type family struct {
	name, help, typ string
	write           func(w io.Writer, name string)
}

func (r *Registry) add(name, help, typ string, write func(io.Writer, string)) {
	r.mu.Lock()
	r.families = append(r.families, family{name, help, typ, write})
	r.mu.Unlock()
}

// OnScrape registers fn to run at the start of every scrape, before any
// family is written. Scrape-time series that must agree with each other
// read one snapshot that fn takes.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.onScrape = append(r.onScrape, fn)
	r.mu.Unlock()
}

// Render writes every registered family.
func (r *Registry) Render(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, fn := range r.onScrape {
		fn()
	}
	for _, f := range r.families {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		f.write(w, f.name)
	}
}

// Counter is a monotonically increasing integer series.
type Counter struct{ v atomic.Int64 }

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(name, help, "counter", func(w io.Writer, name string) {
		fmt.Fprintf(w, "%s %d\n", name, c.Value())
	})
	return c
}

// Add counts n more; n <= 0 is ignored.
func (c *Counter) Add(n int) {
	if n > 0 {
		c.v.Add(int64(n))
	}
}

// Inc counts one more.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the count so far.
func (c *Counter) Value() int64 { return c.v.Load() }

// CounterVec is a counter with one label. The fixed label values are
// emitted even at zero, so dashboards and tests can rely on their
// presence; other values appear once counted. Series print in
// label-value order.
type CounterVec struct {
	mu sync.Mutex
	v  map[string]int64
}

// CounterVec registers a one-label counter.
func (r *Registry) CounterVec(name, help, label string, fixed ...string) *CounterVec {
	c := &CounterVec{v: map[string]int64{}}
	for _, l := range fixed {
		c.v[l] = 0
	}
	r.add(name, help, "counter", func(w io.Writer, name string) {
		c.mu.Lock()
		samples := make([]Sample, 0, len(c.v))
		for l, n := range c.v {
			samples = append(samples, Sample{l, n})
		}
		c.mu.Unlock()
		sort.Slice(samples, func(i, k int) bool { return samples[i].Label < samples[k].Label })
		writeSamples(w, name, label, samples)
	})
	return c
}

// Inc counts one more under the label value.
func (c *CounterVec) Inc(label string) {
	c.mu.Lock()
	c.v[label]++
	c.mu.Unlock()
}

// Histogram is a fixed-bucket distribution of float observations.
type Histogram struct {
	bounds []float64

	mu     sync.Mutex
	counts []int64 // per bucket, not cumulative; the last is +Inf
	sum    float64
	n      int64
}

// Histogram registers a histogram with the given ascending upper
// bounds (the +Inf bucket is implied).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
	r.add(name, help, "histogram", func(w io.Writer, name string) {
		h.mu.Lock()
		defer h.mu.Unlock()
		cum := int64(0)
		for i, le := range h.bounds {
			cum += h.counts[i]
			// A bound prints without a trailing ".0", the Prometheus
			// convention ("5", not "5.0"; "0.5" keeps its fraction).
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(le, 'g', -1, 64), cum)
		}
		cum += h.counts[len(h.bounds)]
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
		fmt.Fprintf(w, "%s_count %d\n", name, h.n)
	})
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.n++
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, or +Inf
	h.counts[i]++
}

// Int registers a scrape-time integer series of type typ ("counter" or
// "gauge") whose value fn reads from its owner.
func (r *Registry) Int(name, help, typ string, fn func() int64) {
	r.add(name, help, typ, func(w io.Writer, name string) {
		fmt.Fprintf(w, "%s %d\n", name, fn())
	})
}

// Float registers a scrape-time float gauge.
func (r *Registry) Float(name, help string, fn func() float64) {
	r.add(name, help, "gauge", func(w io.Writer, name string) {
		fmt.Fprintf(w, "%s %g\n", name, fn())
	})
}

// Sample is one label value of a labeled integer series.
type Sample struct {
	Label string
	Value int64
}

// Ints registers a scrape-time one-label integer series; fn returns
// the samples in print order.
func (r *Registry) Ints(name, help, typ, label string, fn func() []Sample) {
	r.add(name, help, typ, func(w io.Writer, name string) {
		writeSamples(w, name, label, fn())
	})
}

func writeSamples(w io.Writer, name, label string, samples []Sample) {
	for _, s := range samples {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, s.Label, s.Value)
	}
}

// deltaBuckets are the upper bounds of the OBV-increment histogram —
// Δ(seed OBV, final-mutant OBV) per fuzzed seed, the paper's Figure 3/4
// distribution observed live. Values are behavior-count increments, so
// small integers dominate; the top bucket catches optimization-storm
// mutants.
var deltaBuckets = []float64{0, 1, 2, 5, 10, 25, 50, 100, 250}

// knownFaultClasses fixes the fault-count series emitted even at zero,
// so dashboards and tests can rely on their presence.
var knownFaultClasses = []string{
	string(harness.FaultCrash),
	string(harness.FaultMiscompile),
	string(harness.FaultTimeout),
	string(harness.FaultHeapExhausted),
	string(harness.FaultHarness),
}

// daemonMetrics are the series the scheduler feeds from job lifecycle
// events and campaign hooks.
type daemonMetrics struct {
	accepted, requeues, quarantined, executions, findings  *Counter
	planJobs, planFindings, genJobs, genSeeds, genFindings *Counter
	faults                                                 *CounterVec
	delta                                                  *Histogram
	distills, distillSubmitted, distillKept                *Counter
}

// jobsSnapshot is one scrape's pass over the jobs: counts by state,
// triage totals (persisted segments plus live workers) and the power
// schedule gauges of running jobs.
type jobsSnapshot struct {
	states map[JobState]int
	triage TriageStats
	arms   int
	energy float64
}

// registerMetrics registers the daemon's series on s.reg, in /metrics
// order. The fleet coordinator, when there is one, registers its
// series after these.
func (s *Scheduler) registerMetrics() {
	r, m := s.reg, &s.m
	start := s.cfg.Now()
	uptime := func() float64 { return s.cfg.Now().Sub(start).Seconds() }
	var jobs jobsSnapshot
	r.OnScrape(func() { jobs = s.snapshotJobs() })

	r.Ints("mopfuzzd_jobs", "Jobs by lifecycle state.", "gauge", "state", func() []Sample {
		out := make([]Sample, 0, len(States()))
		for _, st := range States() {
			out = append(out, Sample{string(st), int64(jobs.states[st])})
		}
		return out
	})
	m.accepted = r.Counter("mopfuzzd_jobs_accepted_total", "Job submissions accepted.")
	m.requeues = r.Counter("mopfuzzd_requeues_total", "Jobs re-queued after a lost assignment (lease expiry, worker death).")
	m.quarantined = r.Counter("mopfuzzd_jobs_quarantined_total", "Job records or checkpoints found corrupt at startup and set aside.")
	m.executions = r.Counter("mopfuzzd_executions_total", "Target executions across all jobs.")
	r.Float("mopfuzzd_executions_per_second", "Mean execution throughput since daemon start.", func() float64 {
		if up := uptime(); up > 0 {
			return float64(m.executions.Value()) / up
		}
		return 0
	})
	m.findings = r.Counter("mopfuzzd_findings_total", "Finding occurrences streamed by campaigns (pre-dedup).")
	m.planJobs = r.Counter("mopfuzzd_planfuzz_jobs_total", "Accepted jobs with compilation-plan fuzzing enabled.")
	m.planFindings = r.Counter("mopfuzzd_planfuzz_findings_total", "Finding occurrences from the plan-vs-plan differential oracle (pre-dedup).")
	m.genJobs = r.Counter("mopfuzzd_generate_jobs_total", "Accepted jobs with corpus generators enabled.")
	m.genSeeds = r.Counter("mopfuzzd_generate_seeds_total", "Generator emissions refreshed into job pools.")
	m.genFindings = r.Counter("mopfuzzd_generate_findings_total", "Finding occurrences on generator-emitted seeds (pre-dedup).")
	m.faults = r.CounterVec("mopfuzzd_faults_total", "Harness faults by class.", "class", knownFaultClasses...)
	m.delta = r.Histogram("mopfuzzd_obv_delta", "OBV increment per fuzzed seed (Δ seed vs final mutant).", deltaBuckets)
	r.Int("mopfuzzd_triage_findings_total", "Findings consumed by triage workers.", "counter",
		func() int64 { return int64(jobs.triage.Received) })
	r.Int("mopfuzzd_triage_signatures_total", "Novel root-cause signatures stored.", "counter",
		func() int64 { return int64(jobs.triage.Novel) })
	r.Int("mopfuzzd_triage_dedup_hits_total", "Findings deduplicated against existing signatures.", "counter",
		func() int64 { return int64(jobs.triage.Duplicates) })
	r.Float("mopfuzzd_triage_dedup_hit_ratio", "Fraction of findings deduplicated.", func() float64 {
		if jobs.triage.Received > 0 {
			return float64(jobs.triage.Duplicates) / float64(jobs.triage.Received)
		}
		return 0
	})
	r.Float("mopfuzzd_uptime_seconds", "Seconds since daemon start.", uptime)

	// Corpus intelligence: the daemon-wide parse cache, the distillation
	// endpoint's traffic, and the power schedule across running jobs.
	var parse corpus.ParseCacheStats
	r.OnScrape(func() { parse = s.parse.Stats() })
	r.Int("mopfuzzd_corpus_parsecache_hits_total", "Seed parses served from the shared parse cache.", "counter",
		func() int64 { return parse.Hits })
	r.Int("mopfuzzd_corpus_parsecache_misses_total", "Seed parses that had to run the parser.", "counter",
		func() int64 { return parse.Misses })
	r.Int("mopfuzzd_corpus_parsecache_evictions_total", "Cached parses evicted by the size bound.", "counter",
		func() int64 { return parse.Evictions })
	r.Int("mopfuzzd_corpus_parsecache_size", "Parsed programs currently cached.", "gauge",
		func() int64 { return int64(parse.Size) })
	m.distills = r.Counter("mopfuzzd_corpus_distill_requests_total", "Corpus distillation requests served.")
	m.distillSubmitted = r.Counter("mopfuzzd_corpus_distill_seeds_submitted_total", "Seeds submitted to the distillation endpoint.")
	m.distillKept = r.Counter("mopfuzzd_corpus_distill_seeds_kept_total", "Seeds kept by the distillation endpoint.")
	r.Int("mopfuzzd_corpus_sched_arms", "Power-schedule arms across running jobs.", "gauge",
		func() int64 { return int64(jobs.arms) })
	r.Float("mopfuzzd_corpus_sched_energy", "Total power-schedule energy across running jobs.",
		func() float64 { return jobs.energy })

	registerExecPool(r, s.poolStats)
}

// snapshotJobs takes one consistent pass over the jobs for a scrape. A
// running job's triage counts are its record's finished segments plus
// its live worker; the runner moves the worker's final counts into the
// record in the same critical section that detaches the worker, so the
// totals never dip when a job ends.
func (s *Scheduler) snapshotJobs() jobsSnapshot {
	snap := jobsSnapshot{states: map[JobState]int{}}
	for _, j := range s.JobsInOrder() {
		j.mu.Lock()
		snap.states[j.rec.State]++
		if t := j.rec.Triage; t != nil {
			snap.triage.Received += t.Received
			snap.triage.Novel += t.Novel
			snap.triage.Duplicates += t.Duplicates
		}
		if j.rec.State == StateRunning {
			snap.arms += j.progress.ScheduleArms
			snap.energy += j.progress.ScheduleEnergy
		}
		w := j.tworker
		j.mu.Unlock()
		if w != nil {
			snap.triage.add(w.Stats())
		}
	}
	return snap
}

// registerExecPool registers the warm-child-pool series, read from
// stats at scrape time. They exist at zero before any pooled job runs,
// so dashboards and tests can rely on their presence.
func registerExecPool(r *Registry, stats func() (exec.Stats, int)) {
	var st exec.Stats
	var live int
	r.OnScrape(func() { st, live = stats() })
	r.Int("mopfuzzd_execpool_children_live", "Warm minijvm children currently pooled.", "gauge",
		func() int64 { return int64(live) })
	r.Int("mopfuzzd_execpool_executions_total", "Executions served by the pool.", "counter",
		func() int64 { return st.Executions })
	r.Int("mopfuzzd_execpool_batches_total", "Serve-mode round trips (N executions each).", "counter",
		func() int64 { return st.Batches })
	r.Float("mopfuzzd_execpool_mean_batch_size", "Mean executions per round trip (>1 means batching amortizes).",
		func() float64 { return st.MeanBatch() })
	r.Int("mopfuzzd_execpool_spawns_total", "Child processes spawned by the pool.", "counter",
		func() int64 { return st.Spawns })
	r.Int("mopfuzzd_execpool_spawns_avoided_total", "Executions served without a fresh spawn.", "counter",
		func() int64 { return st.SpawnsAvoided })
	r.Ints("mopfuzzd_execpool_recycled_total", "Children retired by recycle policy.", "counter", "reason", func() []Sample {
		return []Sample{{"executions", st.RecycledByCount}, {"memory", st.RecycledByMem}}
	})
	r.Int("mopfuzzd_execpool_killed_total", "Children force-killed (timeouts, failures, drain).", "counter",
		func() int64 { return st.Killed })
	r.Int("mopfuzzd_execpool_retries_total", "Batches retried on a fresh child after a marker-less death.", "counter",
		func() int64 { return st.Retries })
	r.Int("mopfuzzd_execpool_faults_total", "Pool executions classified as backend faults.", "counter",
		func() int64 { return st.Faults })
}
