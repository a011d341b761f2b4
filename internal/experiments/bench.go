package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/jit"
	"repro/internal/jvm"
	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/vm"
)

// BenchReport is the machine-readable campaign-performance artifact
// (BENCH_campaign.json). Campaign throughput compares the sequential
// engine against the speculative worker pool on identical workloads —
// wall-clock parallel speedup tracks the host's usable cores
// (NumCPU/GOMAXPROCS are recorded so a 1-core container's ~1x is
// interpretable) — and the OBV numbers compare the reference
// regex-over-log extraction against the structured counter fast path
// on identical emission streams.
type BenchReport struct {
	// SchemaVersion is 4: v1 fields are preserved verbatim; v2 added the
	// GOMAXPROCS×workers×backend scaling matrix, the child-backend
	// exec-overhead legs, and the interpreter allocation pin; v3 added
	// the power-schedule recall legs (schedule off vs power × plan-fuzz
	// off vs full, detections and median executions-to-first-detection
	// against the ground-truth bug catalog); v4 adds the generator
	// recall legs (randprog-only vs template/style generator sets at
	// the same budget).
	SchemaVersion    int `json:"schema_version"`
	BudgetExecutions int `json:"budget_executions"`
	SeedPool         int `json:"seed_pool"`
	Workers          int `json:"workers"`
	NumCPU           int `json:"num_cpu"`
	GoMaxProcs       int `json:"gomaxprocs"`

	SequentialSecs        float64 `json:"sequential_secs"`
	SequentialExecsPerSec float64 `json:"sequential_execs_per_sec"`
	ParallelSecs          float64 `json:"parallel_secs"`
	ParallelExecsPerSec   float64 `json:"parallel_execs_per_sec"`
	CampaignSpeedup       float64 `json:"campaign_speedup"`

	LegacyOBVSecs        float64 `json:"legacy_obv_campaign_secs"`
	LegacyOBVExecsPerSec float64 `json:"legacy_obv_execs_per_sec"`
	FastOBVSpeedupE2E    float64 `json:"fast_obv_campaign_speedup"`

	OBVRegexNsPerOp      float64 `json:"obv_regex_ns_per_op"`
	OBVStructuredNsPerOp float64 `json:"obv_structured_ns_per_op"`
	OBVSpeedup           float64 `json:"obv_extraction_speedup"`

	// ScalingMatrix sweeps GOMAXPROCS (= campaign workers) per backend
	// over a reduced-budget campaign. NumCPU is recorded per row so a
	// flat curve on a 1-core host is interpretable.
	ScalingMatrix []ScalingRow `json:"scaling_matrix,omitempty"`

	// Exec-overhead legs: the same light program driven through a
	// spawn-per-exec pool (one cold child per execution, recycle budget
	// 1) and the warm child pool, single worker. The warm pool serves
	// children with a live compile cache, so this isolates process-spawn
	// + recompile overhead — the cost the pool exists to amortize. The
	// JSON keys keep their historical "subprocess" names. Zero values
	// mean no minijvm binary was available to run the legs.
	SpawnExecsPerSec   float64 `json:"subprocess_execs_per_sec,omitempty"`
	PoolExecsPerSec    float64 `json:"pool_execs_per_sec,omitempty"`
	PoolVsSpawnSpeedup float64 `json:"pool_vs_subprocess_speedup,omitempty"`
	SpawnSpawns        int64   `json:"subprocess_spawns,omitempty"`
	PoolSpawns         int64   `json:"pool_spawns,omitempty"`
	PoolSpawnsAvoided  int64   `json:"pool_spawns_avoided,omitempty"`
	PoolBatches        int64   `json:"pool_batches,omitempty"`
	PoolMeanBatch      float64 `json:"pool_mean_batch,omitempty"`

	// ScheduleLegs is the v3 scheduling comparison: one ground-truth
	// recall campaign per (schedule, plan-fuzz) cell at the same budget.
	// The power rows validate the corpus subsystem's energy allocation:
	// detected >= the matching off row with a lower (or equal) median
	// executions-to-first-detection.
	ScheduleLegs []ScheduleLeg `json:"schedule_legs,omitempty"`

	// GeneratorLegs is the v4 generator comparison: one ground-truth
	// recall campaign per generator set at the same budget. The
	// template/style rows validate the generate subsystem's scenario
	// diversity: catalog bugs reached that the fixed randprog pool (row
	// 0) misses.
	GeneratorLegs []GeneratorLeg `json:"generator_legs,omitempty"`

	// InterpAllocsPerOp is the call-heavy interpreter workload's heap
	// allocations per full run (the number the frame/arg freelists drive
	// down; internal/vm's TestInterpreterAllocBudget pins its ceiling).
	InterpAllocsPerOp float64 `json:"interp_allocs_per_op"`

	// Plan-fuzz leg (additive; schema_version stays 2): plan-generation
	// throughput, and the per-execution cost of the plan-differential
	// oracle (one spec, k fuzzed plans) against the spec/tier-differential
	// oracle (k specs, fixed plan) over the same program and execution
	// count. PlanDiffOverhead > 1 means one plan-differential execution
	// costs more than one spec-differential execution.
	PlanGenPerSec       float64 `json:"planfuzz_plans_per_sec,omitempty"`
	SpecDiffExecsPerSec float64 `json:"spec_differential_execs_per_sec,omitempty"`
	PlanDiffExecsPerSec float64 `json:"plan_differential_execs_per_sec,omitempty"`
	PlanDiffOverhead    float64 `json:"plan_differential_overhead,omitempty"`
}

// ScalingRow is one cell of the scaling matrix: a campaign at the given
// GOMAXPROCS and worker count on one backend.
type ScalingRow struct {
	Backend     string  `json:"backend"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	Workers     int     `json:"workers"`
	Secs        float64 `json:"secs"`
	ExecsPerSec float64 `json:"execs_per_sec"`
	// Speedup is relative to the same backend's GOMAXPROCS=1 row.
	Speedup float64 `json:"speedup_vs_1"`
}

// BenchOptions configures the v2 legs that need a minijvm binary. The
// zero value skips them (the matrix then covers inprocess only).
type BenchOptions struct {
	// MinijvmPath locates the child binary ("" = $MINIJVM, then $PATH).
	MinijvmPath string
	// ChildTimeout is the per-execution watchdog for child backends.
	ChildTimeout time.Duration
	// Pool shapes the warm pool used by the pool legs.
	Pool exec.PoolTuning
}

// benchCampaignConfig is the shared workload: the standard corpus pool
// fuzzed against one HotSpot target with the production fuzzer config.
func benchCampaignConfig(budget Budget, structured bool, workers int) core.CampaignConfig {
	target := jvm.Reference()
	fcfg := core.DefaultConfig(target)
	fcfg.Seed = budget.Seed
	fcfg.StructuredOBV = structured
	return core.CampaignConfig{
		Seeds:   pool(budget),
		Budget:  budget.Executions,
		Targets: []jvm.Spec{target},
		Fuzz:    fcfg,
		Seed:    budget.Seed,
		Workers: workers,
	}
}

// timeCampaign runs one campaign and returns (executions, seconds).
func timeCampaign(budget Budget, structured bool, workers int) (int, float64) {
	start := time.Now()
	res := core.RunCampaign(benchCampaignConfig(budget, structured, workers))
	return res.Executions, time.Since(start).Seconds()
}

// scalingMatrix sweeps GOMAXPROCS = workers ∈ {1,2,4,8} per backend on a
// reduced-budget campaign. The pool backend appears only when opts
// resolves a minijvm binary; its pool is sized to the row's worker count
// so children scale with parallelism.
func scalingMatrix(budget Budget, opts BenchOptions) []ScalingRow {
	row := budget
	row.Executions = budget.Executions / 3
	if row.Executions < 60 {
		row.Executions = 60
	}

	backends := []string{"inprocess"}
	if _, err := exec.FindMinijvm(opts.MinijvmPath); err == nil {
		backends = append(backends, "pool")
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var rows []ScalingRow
	for _, backend := range backends {
		var base float64
		for _, gmp := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(gmp)
			tuning := opts.Pool
			if tuning.Children == 0 {
				tuning.Children = gmp
			}
			executor, err := exec.FromFlags(backend, opts.MinijvmPath, opts.ChildTimeout, tuning)
			if err != nil {
				continue
			}
			cfg := benchCampaignConfig(row, true, gmp)
			cfg.Executor = executor
			start := time.Now()
			res := core.RunCampaign(cfg)
			secs := time.Since(start).Seconds()
			exec.CloseExecutor(executor)

			r := ScalingRow{
				Backend:     backend,
				GoMaxProcs:  gmp,
				NumCPU:      runtime.NumCPU(),
				Workers:     gmp,
				Secs:        secs,
				ExecsPerSec: float64(res.Executions) / secs,
			}
			if base == 0 {
				base = r.ExecsPerSec
			}
			r.Speedup = r.ExecsPerSec / base
			rows = append(rows, r)
		}
	}
	return rows
}

// overheadSrc is the exec-overhead workload: light enough that process
// spawn and recompilation dominate a cold child's execution cost.
const overheadSrc = `class B {
  static void main() {
    int s = 0;
    for (int i = 0; i < 50; i += 1) { s = s + i; }
    print(s);
  }
}`

// benchExecOverhead drives overheadSrc through a spawn-per-exec pool and
// the warm pool (single worker): N single executions each,
// then N/4 full differentials through the pool so batch amortization
// (mean batch > 1, spawns avoided) shows up in the pool counters.
func benchExecOverhead(r *BenchReport, opts BenchOptions) error {
	path, err := exec.FindMinijvm(opts.MinijvmPath)
	if err != nil {
		return err
	}
	prog, err := lang.Parse(overheadSrc)
	if err != nil {
		return err
	}
	if err := lang.Check(prog); err != nil {
		return err
	}
	ctx := context.Background()
	ref := jvm.Reference()
	specs := jvm.AllSpecs()
	const singles = 40

	cold := exec.NewPool(exec.PoolConfig{Path: path, Timeout: opts.ChildTimeout, Children: 1, RecycleAfter: 1})
	defer cold.Close()
	start := time.Now()
	for i := 0; i < singles; i++ {
		if _, err := cold.Execute(ctx, prog, ref, jvm.Options{}); err != nil {
			return err
		}
	}
	r.SpawnExecsPerSec = singles / time.Since(start).Seconds()
	r.SpawnSpawns = cold.Stats().Spawns

	tuning := opts.Pool
	if tuning.Children == 0 {
		tuning.Children = 1
	}
	pool := exec.NewPool(exec.PoolConfig{
		Path:              path,
		Timeout:           opts.ChildTimeout,
		Children:          tuning.Children,
		RecycleAfter:      tuning.RecycleAfter,
		MaxChildHeapBytes: tuning.MaxChildHeapBytes,
	})
	defer pool.Close()
	// One warm-up execution so the pool leg times warm children, not the
	// first spawn — the steady state a campaign runs in.
	if _, err := pool.Execute(ctx, prog, ref, jvm.Options{}); err != nil {
		return err
	}
	start = time.Now()
	for i := 0; i < singles; i++ {
		if _, err := pool.Execute(ctx, prog, ref, jvm.Options{}); err != nil {
			return err
		}
	}
	r.PoolExecsPerSec = singles / time.Since(start).Seconds()
	for i := 0; i < singles/4; i++ {
		if _, err := pool.ExecuteDifferential(ctx, prog, specs, jvm.Options{}); err != nil {
			return err
		}
	}
	st := pool.Stats()
	r.PoolSpawns = st.Spawns
	r.PoolSpawnsAvoided = st.SpawnsAvoided
	r.PoolBatches = st.Batches
	r.PoolMeanBatch = st.MeanBatch()
	if r.SpawnExecsPerSec > 0 {
		r.PoolVsSpawnSpeedup = r.PoolExecsPerSec / r.SpawnExecsPerSec
	}
	return nil
}

// benchPlanFuzz times compilation-plan generation and compares the two
// differential oracles per execution: spec-differential (every spec,
// default plan) versus plan-differential (one spec, as many fuzzed
// plans as there are specs), on the same program. Equal execution
// counts per round trip make the ratio a pure schedule-overhead number.
func benchPlanFuzz(r *BenchReport) error {
	prog, err := lang.Parse(overheadSrc)
	if err != nil {
		return err
	}
	if err := lang.Check(prog); err != nil {
		return err
	}

	const gens = 20000
	start := time.Now()
	for i := 0; i < gens; i++ {
		if err := jit.GeneratePlan(int64(i), jit.PlanFull).Validate(); err != nil {
			return err
		}
	}
	r.PlanGenPerSec = gens / time.Since(start).Seconds()

	specs := jvm.AllSpecs()
	plans := []*jit.Plan{nil}
	for len(plans) < len(specs) {
		plans = append(plans, jit.GeneratePlan(int64(len(plans))*7919, jit.PlanFull))
	}
	opt := jvm.Options{ForceCompile: true, MaxSteps: 3_000_000}
	const rounds = 25

	start = time.Now()
	specExecs := 0
	for i := 0; i < rounds; i++ {
		d, err := jvm.RunDifferential(lang.CloneProgram(prog), specs, opt)
		if err != nil {
			return err
		}
		specExecs += len(d.Results)
	}
	r.SpecDiffExecsPerSec = float64(specExecs) / time.Since(start).Seconds()

	start = time.Now()
	planExecs := 0
	for i := 0; i < rounds; i++ {
		d, err := jvm.RunPlanDifferential(lang.CloneProgram(prog), jvm.Reference(), plans, opt)
		if err != nil {
			return err
		}
		planExecs += len(d.Results)
	}
	r.PlanDiffExecsPerSec = float64(planExecs) / time.Since(start).Seconds()
	if r.PlanDiffExecsPerSec > 0 {
		r.PlanDiffOverhead = r.SpecDiffExecsPerSec / r.PlanDiffExecsPerSec
	}
	return nil
}

// allocWorkloadSrc mirrors internal/vm's call-heavy allocation workload:
// nested calls, argument passing, and enough heap churn to trigger GC
// root scans.
const allocWorkloadSrc = `
class T {
  int f;
  static void main() {
    T t = new T();
    long total = 0;
    for (int i = 0; i < 400; i += 1) {
      total = total + t.outer(i, i + 1);
    }
    print(total);
  }
  int outer(int a, int b) {
    return this.inner(a) + this.inner(b);
  }
  int inner(int x) {
    int acc = 0;
    for (int k = 0; k < 3; k += 1) { acc = acc + x + k; }
    return acc;
  }
}`

// benchInterpAllocs measures heap allocations per full interpreter run
// of the call-heavy workload (a hand-rolled AllocsPerRun: Mallocs delta
// over a fixed iteration count).
func benchInterpAllocs() (float64, error) {
	p, err := lang.Parse(allocWorkloadSrc)
	if err != nil {
		return 0, err
	}
	if err := lang.Check(p); err != nil {
		return 0, err
	}
	img, err := bytecode.Compile(p)
	if err != nil {
		return 0, err
	}
	run := func() error {
		res := vm.NewMachine(img, vm.Config{}).Run()
		if res.Crash != nil || res.Exception != nil {
			return fmt.Errorf("experiments: alloc workload failed: %+v", res)
		}
		return nil
	}
	if err := run(); err != nil { // warm-up: lazy init off the measured path
		return 0, err
	}
	const iters = 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		if err := run(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / iters, nil
}

// benchOBVExtraction times one representative emission stream — every
// structured line shape, including both double-rule shapes — through
// the full recorder + regex extraction versus the counter recorder.
func benchOBVExtraction() (regexNs, structuredNs float64) {
	emitStream := func(e interface {
		Emitf(profile.Flag, string, ...any)
		EmitBehaviorf(profile.Flag, []profile.Behavior, string, ...any)
	}) {
		for rep := 0; rep < 8; rep++ {
			e.Emitf(profile.FlagPrintCompilation, "    %d    3    Foo::work (hot)", rep)
			e.EmitBehaviorf(profile.FlagPrintInlining, profile.LineInline, "@ %d Foo::work (%d nodes)   inline (hot)", rep, 12)
			e.EmitBehaviorf(profile.FlagPrintInlining, profile.LineInlineSync, "@ %d Foo::sync   inline (hot) monitors rewired", rep)
			e.EmitBehaviorf(profile.FlagTraceLoopOpts, profile.LineUnroll, "Unroll %d(%d)", 8, 16)
			e.EmitBehaviorf(profile.FlagTraceLoopOpts, profile.LinePeel, "Peel  %s trip=%d", "Foo.work", 3)
			e.EmitBehaviorf(profile.FlagPrintEliminateLocks, profile.LineNestedLockElim, "++++ Eliminated: 1 Lock (nested)")
			e.EmitBehaviorf(profile.FlagPrintEscapeAnalysis, profile.LineEscapeNone, "%s is NoEscape", "obj")
			e.EmitBehaviorf(profile.FlagPrintGVN, profile.LineGVN, "GVN hit: %s subsumed by %s in %s", "add(a,b)", "t1", "Foo.work")
			e.EmitBehaviorf(profile.FlagTraceDeadCode, profile.LineDCE, "DCE: removed %s in %s", "dead branch", "Foo.work")
			e.EmitBehaviorf(profile.FlagTraceDeoptimization, profile.LineUncommonTrap, "Uncommon trap occurred in %s reason=%s", "Foo.work", "trap")
		}
	}
	flags := profile.DefaultFlags()
	const iters = 2000
	var sink profile.OBV

	start := time.Now()
	for i := 0; i < iters; i++ {
		rec := profile.NewRecorder(flags)
		emitStream(rec)
		sink = profile.ExtractOBV(rec.Text())
	}
	regexNs = float64(time.Since(start).Nanoseconds()) / iters

	start = time.Now()
	for i := 0; i < iters; i++ {
		rec := profile.NewCounterRecorder(flags)
		emitStream(rec)
		sink = rec.OBV()
	}
	structuredNs = float64(time.Since(start).Nanoseconds()) / iters
	_ = sink
	return regexNs, structuredNs
}

// BenchCampaign measures campaign throughput (sequential vs parallel vs
// legacy-OBV), the scaling matrix, the child-backend exec-overhead legs,
// OBV extraction cost, and the interpreter allocation pin.
func BenchCampaign(budget Budget, workers int, opts BenchOptions) *BenchReport {
	if workers <= 0 {
		workers = 4
	}
	r := &BenchReport{
		SchemaVersion:    4,
		BudgetExecutions: budget.Executions,
		SeedPool:         budget.Seeds,
		Workers:          workers,
		NumCPU:           runtime.NumCPU(),
		GoMaxProcs:       runtime.GOMAXPROCS(0),
	}

	// The schedule legs run before anything else so they execute against
	// the same fresh process state as `experiments -schedule-recall`:
	// campaign results are reproducible across fresh processes, but heavy
	// unrelated in-process work beforehand (warm-up, scaling sweeps) can
	// shift a marginal detection, and the recorded artifact must match
	// what the documented command reproduces. They are recall campaigns,
	// not throughput measurements, so running them cold costs nothing.
	r.ScheduleLegs = BenchScheduleLegs(budget)
	// The generator legs are recall campaigns too, and the same
	// reproducibility argument applies: run them cold, before the timing
	// legs, so `experiments -generator-recall` reproduces the artifact.
	r.GeneratorLegs = BenchGeneratorLegs(budget)

	// Warm-up run so one-time costs (corpus generation, lazy init) do
	// not land on the first timed configuration.
	timeCampaign(Budget{Executions: budget.Executions / 4, Seeds: budget.Seeds, Seed: budget.Seed}, true, 1)

	execs, secs := timeCampaign(budget, true, 1)
	r.SequentialSecs = secs
	r.SequentialExecsPerSec = float64(execs) / secs

	execs, secs = timeCampaign(budget, true, workers)
	r.ParallelSecs = secs
	r.ParallelExecsPerSec = float64(execs) / secs
	r.CampaignSpeedup = r.ParallelExecsPerSec / r.SequentialExecsPerSec

	execs, secs = timeCampaign(budget, false, 1)
	r.LegacyOBVSecs = secs
	r.LegacyOBVExecsPerSec = float64(execs) / secs
	r.FastOBVSpeedupE2E = r.SequentialExecsPerSec / r.LegacyOBVExecsPerSec

	r.OBVRegexNsPerOp, r.OBVStructuredNsPerOp = benchOBVExtraction()
	r.OBVSpeedup = r.OBVRegexNsPerOp / r.OBVStructuredNsPerOp

	r.ScalingMatrix = scalingMatrix(budget, opts)
	// The overhead legs need a minijvm binary; without one the fields
	// stay zero (omitted from the JSON) and the matrix covers inprocess
	// only.
	_ = benchExecOverhead(r, opts)
	_ = benchPlanFuzz(r)
	if allocs, err := benchInterpAllocs(); err == nil {
		r.InterpAllocsPerOp = allocs
	}
	return r
}

// WriteBenchJSON runs BenchCampaign and writes the indented JSON report.
func WriteBenchJSON(w io.Writer, budget Budget, workers int, opts BenchOptions) (*BenchReport, error) {
	r := BenchCampaign(budget, workers, opts)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, fmt.Errorf("experiments: bench report: %w", err)
	}
	return r, nil
}

// ScalingTable renders the v2 legs human-readably — the scaling matrix,
// the exec-overhead comparison, and the allocation pin — for
// experiments_output.txt alongside the JSON artifact.
func ScalingTable(w io.Writer, r *BenchReport) {
	fmt.Fprintf(w, "Scaling matrix (campaign throughput; host: %d CPU(s)):\n", r.NumCPU)
	if len(r.ScalingMatrix) == 0 {
		fmt.Fprintln(w, "  (not run)")
	} else {
		fmt.Fprintf(w, "  %-10s  %10s  %7s  %9s  %7s\n", "backend", "gomaxprocs", "workers", "execs/sec", "speedup")
		for _, row := range r.ScalingMatrix {
			fmt.Fprintf(w, "  %-10s  %10d  %7d  %9.1f  %6.2fx\n",
				row.Backend, row.GoMaxProcs, row.Workers, row.ExecsPerSec, row.Speedup)
		}
	}
	fmt.Fprintln(w, "Exec overhead (light program, single worker):")
	if r.SpawnExecsPerSec == 0 && r.PoolExecsPerSec == 0 {
		fmt.Fprintln(w, "  (skipped: no minijvm binary)")
	} else {
		fmt.Fprintf(w, "  spawn-per-exec  %8.1f execs/sec  (%d spawns: one cold child per execution)\n",
			r.SpawnExecsPerSec, r.SpawnSpawns)
		fmt.Fprintf(w, "  pool            %8.1f execs/sec  (%.1fx; %d spawns, %d avoided, mean batch %.1f over %d round trips)\n",
			r.PoolExecsPerSec, r.PoolVsSpawnSpeedup, r.PoolSpawns, r.PoolSpawnsAvoided, r.PoolMeanBatch, r.PoolBatches)
	}
	if r.PlanGenPerSec > 0 {
		fmt.Fprintf(w, "Plan fuzzing: %.0f plans/sec generated; differential oracle %8.1f execs/sec over specs vs %8.1f over plans (%.2fx overhead)\n",
			r.PlanGenPerSec, r.SpecDiffExecsPerSec, r.PlanDiffExecsPerSec, r.PlanDiffOverhead)
	}
	if len(r.ScheduleLegs) > 0 {
		fmt.Fprintln(w, "Power-schedule recall (same budget per leg):")
		fmt.Fprintf(w, "  %-8s  %-8s  %8s  %8s  %14s\n", "schedule", "planfuzz", "detected", "execs", "medianToDetect")
		for _, lg := range r.ScheduleLegs {
			fmt.Fprintf(w, "  %-8s  %-8s  %8d  %8d  %14.0f\n",
				lg.Schedule, lg.PlanFuzz, lg.Detected, lg.Executions, lg.MedianExecsToDetect)
		}
	}
	if len(r.GeneratorLegs) > 0 {
		fmt.Fprintln(w, "Generator recall (same budget per leg):")
		fmt.Fprintf(w, "  %-28s  %8s  %8s  %14s  %8s\n", "generators", "detected", "execs", "medianToDetect", "genHits")
		for _, lg := range r.GeneratorLegs {
			fmt.Fprintf(w, "  %-28s  %8d  %8d  %14.0f  %8d\n",
				strings.Join(lg.Generators, "+"), lg.Detected, lg.Executions, lg.MedianExecsToDetect, lg.GeneratorDetections)
		}
	}
	fmt.Fprintf(w, "Interpreter: %.0f allocs per call-heavy workload run\n", r.InterpAllocsPerOp)
}
