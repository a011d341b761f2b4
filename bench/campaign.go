package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/jvm"
	"repro/internal/triage"
)

// workload is one benchmark input configuration. Every workload fuzzes
// openjdk-17 with the mopfuzzer CLI's fuzzer settings (core.DefaultConfig:
// 50 iterations, guided, fixed mutation point, 10-spec differential; plus
// the structured OBV fast path) over a corpus.DefaultPool of poolSize
// seeds, as a closed loop: one client, Workers: 1, a fixed execution
// budget per campaign.
type workload struct {
	Name   string
	Budget int  // executions per campaign
	Light  bool // main driver loop rewritten to lightTrips trips
	Pool   bool // exec.Pool backend with one warm child
	Writes bool // checkpoint after every task plus a triage worker that reduces
	Power  bool // full plan fuzzing, power schedule, generators, score cache
}

const poolSize = 20

// workloads are chosen so that each loads a different layer; README.md
// and BENCHMARK.json record why each one is there.
var workloads = []workload{
	{
		Name:   "heavy",
		Budget: 100,
	},
	{
		Name:   "light-writes",
		Budget: 900,
		Light:  true,
		Writes: true,
	},
	{
		Name:   "light-pool",
		Budget: 900,
		Light:  true,
		Pool:   true,
	},
	{
		Name:   "planfuzz-power",
		Budget: 1050,
		Light:  true,
		Power:  true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// partner names the workload whose campaign must produce the same result
// digest as w's on the same seeds. The two light workloads differ only in
// backend and in side effects that never reach the result (checkpoints,
// triage), so each checks the other: in-process and pool runs must be
// byte-identical. Every other workload is checked against a repeat of
// itself.
func (w workload) partner() string {
	switch w.Name {
	case "light-writes":
		return "light-pool"
	case "light-pool":
		return "light-writes"
	}
	return w.Name
}

const lightTrips = 40

// mainLoop matches the driver loop in main() of every DefaultPool seed
// (exactly once per seed; the tests pin that). Inner loops use other
// induction variables.
var mainLoop = regexp.MustCompile(`for \(int i = 0; i < \d+;`)

// lightSeeds rewrites each seed's driver loop to lightTrips trips, which
// makes an execution about 25 times cheaper while keeping every
// statement the fuzzer mutates.
func lightSeeds(seeds []corpus.Seed) []corpus.Seed {
	out := make([]corpus.Seed, len(seeds))
	for i, s := range seeds {
		s.Source = mainLoop.ReplaceAllLiteralString(s.Source, fmt.Sprintf("for (int i = 0; i < %d;", lightTrips))
		out[i] = s
	}
	return out
}

// campaignSpec is what the parent hands a child process: one campaign.
type campaignSpec struct {
	Workload   string `json:"workload"`
	CorpusSeed int64  `json:"corpus_seed"`
	Seed       int64  `json:"seed"`
	Budget     int    `json:"budget"`
	Trace      bool   `json:"trace"`
	// StartNanos is the parent's clock when it started the child, so
	// set-up time includes process start.
	StartNanos int64  `json:"start_ns"`
	Minijvm    string `json:"minijvm,omitempty"`
	StateDir   string `json:"state_dir"`
	TraceFile  string `json:"trace_file,omitempty"`
}

// campaignResult is what a child reports back for one campaign.
type campaignResult struct {
	Digest      string  `json:"digest"`
	Executions  int     `json:"executions"`
	Tasks       int     `json:"tasks"`
	Failed      int     `json:"failed"` // faults + seed errors
	Bugs        int     `json:"bugs"`
	SetupSec    float64 `json:"setup_s"`
	CampaignSec float64 `json:"campaign_s"` // including the triage drain
	// MeterSec is the part of CampaignSec the host meter's slices took
	// (untraced campaigns only), and HostFactor how many times slower
	// than nominal they ran (1 when traced).
	MeterSec   float64 `json:"meter_s"`
	HostFactor float64 `json:"host_factor"`
	AllocBytes float64 `json:"alloc_bytes"`
	PeakRSSKB  float64 `json:"peak_rss_kb"`
	// Layers carries the raw per-layer observations of a traced run; the
	// parent pools them across campaigns before taking percentiles.
	Layers *layerData `json:"layers,omitempty"`
}

// campaignSec is the campaign's time without the host meter's.
func (r *campaignResult) campaignSec() float64 { return r.CampaignSec - r.MeterSec }

// runCampaign sets up and runs one campaign in this process. Everything
// it writes lives in a fresh directory under spec.StateDir, removed on
// return.
func runCampaign(spec campaignSpec) (*campaignResult, error) {
	w, ok := workloadByName(spec.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	if err := os.MkdirAll(spec.StateDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(spec.StateDir, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	ctx := context.Background()
	var tr *tracer
	var ld *layerData
	if spec.Trace {
		tr = newTracer()
		ld = newLayerData()
	}

	seeds := corpus.DefaultPool(poolSize, spec.CorpusSeed)
	if w.Light {
		seeds = lightSeeds(seeds)
	}
	target, err := jvm.ParseSpec("openjdk-17")
	if err != nil {
		return nil, err
	}

	var inner exec.Executor = exec.InProcess{}
	var pool *exec.Pool
	var poolBase exec.Stats
	if w.Pool {
		if spec.Minijvm == "" {
			return nil, fmt.Errorf("workload %s needs a minijvm binary (-minijvm or $MINIJVM)", w.Name)
		}
		pool = exec.NewPool(exec.PoolConfig{Path: spec.Minijvm, Timeout: 10 * time.Second, Children: 1})
		defer pool.Close()
		// One warm-up execution spawns the child, so the campaign starts
		// against a warm pool as a long-running daemon's would.
		if _, err := pool.Execute(ctx, seeds[0].Parse(), target, jvm.Options{ForceCompile: true}); err != nil {
			return nil, fmt.Errorf("pool warm-up: %w", err)
		}
		poolBase = pool.Stats()
		inner = pool
	}
	ex := inner
	var tex *tracedExecutor
	var meter *hostMeter
	if tr != nil {
		tex = &tracedExecutor{inner: inner, tr: tr, ld: ld, stride: max(1, spec.Budget/samplesPerCampaign), wire: w.Pool}
		ex = tex
	} else {
		meter = newHostMeter()
		ex = meteredExecutor{inner: inner, m: meter}
	}

	fcfg := core.DefaultConfig(target)
	fcfg.StructuredOBV = true
	cache := jit.NewCache(0)
	fcfg.CompileCache = cache
	parsed := corpus.NewParseCache()
	ccfg := core.CampaignConfig{
		Seeds:      seeds,
		Budget:     spec.Budget,
		Targets:    []jvm.Spec{target},
		Fuzz:       fcfg,
		Seed:       spec.Seed,
		Workers:    1,
		Executor:   ex,
		ParseCache: parsed,
	}
	hcfg := harness.Config{MaxRetries: 2, Backoff: 100 * time.Millisecond}

	if w.Power {
		ccfg.Fuzz.PlanFuzz = jit.PlanFull
		ccfg.SeedSchedule = corpus.SchedulePower
		ccfg.Generators = []string{"randprog", "template", "style"}
		ccfg.ScoreCachePath = filepath.Join(dir, "scores.json")
		// The -score-cache flow: scoring happens once, in set-up; the
		// campaign's own ScoreSeeds call then hits the cache.
		var id int
		if tr != nil {
			id = tr.begin("corpus.ScoreSeeds", 0)
		}
		if _, err := core.ScoreSeeds(ctx, seeds, inner, ccfg.ScoreCachePath); err != nil {
			return nil, fmt.Errorf("score seeds: %w", err)
		}
		if tr != nil {
			tr.end(id)
		}
	}

	var store *triage.Store
	var tworker *triage.Worker
	if w.Writes {
		hcfg.CheckpointPath = filepath.Join(dir, "campaign.ckpt")
		store, err = triage.Open(filepath.Join(dir, "triage"))
		if err != nil {
			return nil, err
		}
		defer store.Close()
		// Reduction probes use the untraced executor: they run on the
		// worker's goroutine, beside the campaign, and are timed by the
		// reduce replay instead.
		tworker, err = triage.NewWorker(triage.WorkerConfig{Store: store, Executor: inner})
		if err != nil {
			return nil, err
		}
		tworker.Start(ctx)
		ccfg.OnFinding = func(f core.Finding) { tworker.Submit(f) }
	}

	var tasks int
	var last core.Progress
	// childHWM is each pool child's peak RSS as last read; children are
	// recycled mid-campaign, so they are read after every task.
	childHWM := map[int]float64{}
	ccfg.OnProgress = func(p core.Progress) {
		tasks++
		last = p
		if tr == nil {
			return
		}
		tr.taskDone()
		if pool != nil {
			for _, pid := range pool.Pids() {
				childHWM[pid] = procStatusKB(fmt.Sprint(pid), "VmHWM")
			}
		}
	}

	res := &campaignResult{SetupSec: time.Since(time.Unix(0, spec.StartNanos)).Seconds()}
	before := readRuntime()
	if tr != nil {
		tr.startCampaign()
	}
	start := time.Now()
	cres, err := core.RunCampaignContext(ctx, ccfg, hcfg)
	if err != nil {
		if tworker != nil {
			tworker.Close()
		}
		return nil, err
	}
	callEnd := time.Now()
	var tstats triage.Stats
	if tworker != nil {
		if err := tworker.Close(); err != nil {
			return nil, fmt.Errorf("triage drain: %w", err)
		}
		tstats = tworker.Stats()
	}
	end := time.Now()
	if tr != nil {
		tr.endCampaign()
	}
	after := readRuntime()

	res.Digest = digest(cres)
	res.Executions = cres.Executions
	res.Tasks = tasks
	res.Failed = len(cres.Faults) + len(cres.SeedErrors)
	res.Bugs = len(cres.Findings)
	res.CampaignSec = end.Sub(start).Seconds()
	res.AllocBytes = after.allocBytes - before.allocBytes
	res.HostFactor = 1
	if meter != nil {
		res.MeterSec = meter.spent.Seconds()
		res.HostFactor = meter.factor()
	}
	res.PeakRSSKB = procStatusKB("self", "VmHWM")
	if ld == nil {
		return res, nil
	}

	// Traced run: counters read at the layer boundaries, then the replays.
	ld.count("campaigns", 1)
	ld.count("executions", float64(cres.Executions))
	ld.count("tasks", float64(tasks))
	ld.count("campaign_s", res.CampaignSec)
	ld.count("campaign_call_s", callEnd.Sub(start).Seconds())
	ld.count("gc_cpu_s", after.gcCPU-before.gcCPU)
	ld.count("total_cpu_s", after.totalCPU-before.totalCPU)
	ld.count("gc_cycles", after.gcCycles-before.gcCycles)
	cs := cache.Stats()
	ld.count("jit.cache_hits", float64(cs.Hits))
	ld.count("jit.cache_lookups", float64(cs.Hits+cs.Misses))
	ld.count("jit.cache_entries", float64(cache.Len()))
	ps := parsed.Stats()
	ld.count("corpus.parse_hits", float64(ps.Hits))
	ld.count("corpus.parse_lookups", float64(ps.Hits+ps.Misses))
	ld.count("corpus.schedule_arms", float64(last.ScheduleArms))
	ld.count("generate.seeds_emitted", float64(last.GeneratedSeeds))
	if pool != nil {
		st := pool.Stats()
		ld.count("pool.execs", float64(st.Executions-poolBase.Executions))
		ld.count("pool.child_us", float64(st.ChildMicros-poolBase.ChildMicros))
		ld.count("pool.batches", float64(st.Batches-poolBase.Batches))
		ld.count("pool.spawns", float64(st.Spawns-poolBase.Spawns))
		ld.count("pool.recycled", float64(st.RecycledByCount+st.RecycledByMem-poolBase.RecycledByCount-poolBase.RecycledByMem))
		for _, kb := range childHWM {
			ld.add("exec.child_rss_mb", kb/1024)
		}
	}
	if tworker != nil {
		ld.count("triage.received", float64(tstats.Received))
		ld.count("triage.novel", float64(tstats.Novel))
		ld.count("triage.duplicates", float64(tstats.Duplicates))
		ld.count("triage.errors", float64(tstats.Errors))
		ld.count("triage.drain_s", end.Sub(callEnd).Seconds())
	}
	tex.finish()

	if err := replayExecutions(tr, ld, tex.samples); err != nil {
		return nil, err
	}
	if w.Writes {
		if err := replayCheckpoint(tr, ld, hcfg.CheckpointPath, filepath.Join(dir, "resaved.ckpt")); err != nil {
			return nil, err
		}
		replayReductions(ctx, tr, ld, inner, cres.Findings)
	}
	ld.addSpans(tr.snapshot())
	if spec.TraceFile != "" {
		if err := tr.write(spec.TraceFile); err != nil {
			return nil, err
		}
	}
	res.Layers = ld
	return res, nil
}

// digest fingerprints everything a campaign decides: findings (bug,
// cursor, execution), fault classes, per-task deltas, and the counters.
// Two campaigns over the same inputs must agree on it regardless of
// backend, tracing, or side effects such as checkpoints and triage.
func digest(r *core.CampaignResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "executions %d seeds %d skipped %d\n", r.Executions, r.SeedsFuzzed, r.SkippedQuarantined)
	for _, f := range r.Findings {
		fmt.Fprintf(h, "finding %s cursor %d exec %d oracle %s\n", f.Bug.ID, f.Cursor, f.AtExecution, f.Oracle)
	}
	for _, f := range r.Faults {
		fmt.Fprintf(h, "fault %s %s\n", f.Class, f.TaskID)
	}
	for _, e := range r.SeedErrors {
		fmt.Fprintf(h, "seed-error %s %d %s\n", e.SeedName, e.Round, e.Err)
	}
	for _, d := range r.FinalDeltas {
		fmt.Fprintf(h, "delta %016x\n", math.Float64bits(d))
	}
	return hex.EncodeToString(h.Sum(nil))
}
