package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/buginject"
	"repro/internal/corpus"
	"repro/internal/exec"
	"repro/internal/generate"
	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/jvm"
	"repro/internal/lang"
	"repro/internal/profile"
)

// CampaignConfig drives a multi-seed fuzzing campaign. Budget is the
// total number of target executions — the deterministic stand-in for
// the paper's wall-clock budgets (24 hours, three months).
type CampaignConfig struct {
	Seeds   []corpus.Seed
	Budget  int
	Targets []jvm.Spec // fuzzing targets, cycled per seed
	Fuzz    Config     // per-seed settings (Target/Seed overwritten)
	Seed    int64
	// Workers shards seed-tasks across a worker pool. 0 or 1 runs
	// sequentially on the calling goroutine (the deterministic default);
	// N>1 executes tasks speculatively on N goroutines while a
	// cursor-ordered merge reconstructs the sequential result
	// byte-identically (see internal/core/parallel.go).
	Workers int
	// Executor selects the execution backend for every fuzzing and
	// differential run in the campaign. Nil keeps the in-process default
	// (byte-identical results, pinned by the determinism tests); the
	// pool executor runs target executions in child processes so
	// substrate deaths become classified harness faults.
	Executor exec.Executor
	// OnFinding, when non-nil, observes every detected finding occurrence
	// as it is merged — including repeat occurrences of bugs already in
	// Findings, which the campaign-level dedup suppresses from the result.
	// Calls happen on the campaign goroutine in cursor order (identical
	// under -workers), so a triage consumer sees a deterministic stream.
	// Findings restored from a checkpoint are not re-fired: a persistent
	// consumer already saw them in the interrupted run.
	OnFinding func(Finding)
	// SeedSchedule selects the budget-allocation policy across seeds.
	// Empty or corpus.ScheduleOff walks seeds in cursor order — the
	// pre-scheduling campaign, byte-identical by construction and pinned
	// by test. corpus.SchedulePower scores the pool (one profiling
	// dry-run per seed, not counted against Budget) and allocates round
	// slots across (seed, plan-mode) arms by decayed yield with UCB
	// exploration; the whole schedule derives deterministically from
	// Seed, so resume and fleet handoff reproduce it byte-identically.
	SeedSchedule corpus.ScheduleMode
	// ScoreCachePath, when non-empty, persists per-seed feature vectors
	// across runs (power scheduling and distillation skip dry-runs for
	// seeds already scored). Purely an accelerator; never changes
	// results.
	ScoreCachePath string
	// DistillSeeds replaces the pool with its maximally-diverse subset
	// (corpus.Distill) before fuzzing starts. Deterministic, so resumed
	// and handed-off campaigns reconstruct the same subset.
	DistillSeeds bool
	// ParseCache optionally shares a seed-parse cache with other
	// campaigns (the daemon shares one bounded cache across runners).
	// Nil keeps a campaign-local cache.
	ParseCache *corpus.ParseCache
	// OnProgress, when non-nil, observes an incremental campaign snapshot
	// after every merged task, on the campaign goroutine in cursor order
	// (identical under -workers). Long-running consumers — the service
	// daemon's job views and /metrics endpoint — read live state from
	// these instead of waiting for the final CampaignResult. State
	// restored from a checkpoint is not re-fired; the first snapshot of a
	// resumed run already carries the restored cumulative totals.
	OnProgress func(Progress)
	// Generators selects the program-generator sources that refresh the
	// seed pool between rounds (see internal/generate): "randprog" (the
	// baseline random generator), "template" (typed holes punched into
	// the campaign's own seeds plus TemplateExtras), "style" (grammar
	// composition styles targeting JIT-pass interactions). Empty — or
	// just "randprog" — leaves the subsystem off: the pool is static and
	// the campaign is byte-identical to a pre-generator build, pinned by
	// test.
	Generators []string
	// Styles restricts the "style" generator to the named composition
	// styles (empty = all registered styles). Naming a style implies the
	// style generator.
	Styles []string
	// TemplateExtras are extra program sources mined for templates beyond
	// the seed pool — the triage path feeds minimized finding reducers in
	// here. Unparseable entries are skipped. The set is pinned in the
	// checkpoint so resume mines identical templates.
	TemplateExtras []string
}

// Progress is one incremental campaign snapshot: the cumulative totals
// after merging the task at Cursor, plus the per-task observations
// (final-mutant delta, fault) that cumulative counters can't recover.
type Progress struct {
	Cursor             int // task just merged
	Executions         int // cumulative, including restored checkpoint state
	SeedsFuzzed        int
	Findings           int // deduplicated campaign findings so far
	Faults             int
	SeedErrors         int
	SkippedQuarantined int
	// PlanFindings counts the deduplicated findings so far whose oracle
	// is the plan-vs-plan differential — the live feed for the service's
	// planfuzz metrics. Always ≤ Findings; 0 when plan fuzzing is off.
	PlanFindings int
	// Delta is the just-merged task's Δ(seed OBV, final-mutant OBV);
	// HasDelta marks whether the task produced one (skipped, faulted,
	// and errored tasks do not).
	Delta    float64
	HasDelta bool
	// Fault is the fault merged by this task, when any (contained panic,
	// watchdog timeout, heap exhaustion).
	Fault *harness.Fault
	// ScheduleArms and ScheduleEnergy describe the power schedule when
	// one is active (the /metrics gauges): the arm-space size and the
	// current total live energy. Both zero with scheduling off.
	ScheduleArms   int
	ScheduleEnergy float64
	// GeneratedSeeds counts cumulative generator emissions when the
	// generator subsystem is on (the mopfuzzd_generate_seeds gauge).
	// Zero with generators off.
	GeneratedSeeds int
}

// Finding is one campaign-level bug detection.
type Finding struct {
	Bug         *buginject.Bug
	Oracle      string
	SeedName    string
	Target      jvm.Spec
	AtExecution int // cumulative executions when found (the time axis)
	Mutators    []string
	Program     *lang.Program // the triggering mutant (pre-reduction)
	// Harness carries the supervision context (fault class, retries,
	// quarantine path) when the finding came through the supervised
	// path; hs_err reports are annotated with it.
	Harness *harness.FaultContext
	// Provenance: where and how deep in the campaign the bug surfaced.
	// Cursor is the global task cursor (seed, round, target, and RNG seed
	// all derive from it), Round the corpus round, and ChainLen the
	// mutation-chain length at detection.
	Cursor   int
	Round    int
	ChainLen int
	// OBV is the final mutant's optimization-behavior vector — the
	// profile behaviors active at failure, which triage reports render as
	// the finding's OBV fingerprint.
	OBV profile.OBV
	// Divergence is the first diverging target pair for differential
	// findings (nil for crash findings).
	Divergence *jvm.Divergence
	// PlanID is the compilation plan the finding surfaced under
	// ("default" or a plan ShortID). Empty when the campaign ran without
	// plan fuzzing — the pre-plan finding shape.
	PlanID string
	// GeneratorID names the generator that emitted the seed the finding
	// surfaced on ("randprog", "template", "style:<name>"). Empty for
	// baseline-pool seeds and for campaigns without generators — the
	// pre-generator finding shape.
	GeneratorID string
}

// SeedError records a seed the fuzzer rejected (parse/shape problems),
// previously swallowed silently by the campaign loop.
type SeedError struct {
	SeedName string `json:"seed_name"`
	Round    int    `json:"round"`
	Err      string `json:"err"`
}

// CampaignResult aggregates a campaign.
type CampaignResult struct {
	Findings    []Finding // chronological; first occurrence per bug ID
	Executions  int
	SeedsFuzzed int
	// FinalDeltas holds Δ(seed OBV, final-mutant OBV) per fuzzed seed —
	// the Figure 3/4 distribution.
	FinalDeltas []float64
	// SeedErrors lists seeds the fuzzer could not process, per round.
	SeedErrors []SeedError
	// Faults lists harness-level failures (contained panics, wall-clock
	// hangs, heap exhaustions) — themselves crash-oracle findings, with
	// the triggering mutants quarantined on disk.
	Faults []*harness.Fault
	// SkippedQuarantined counts task runs skipped because the seed was
	// already quarantined.
	SkippedQuarantined int
	// CheckpointErrors counts checkpoint writes that failed; the
	// campaign keeps running (the next flush retries), but silent
	// persistence loss would make -resume lie, so failures are surfaced
	// here with the most recent message in LastCheckpointError.
	CheckpointErrors    int
	LastCheckpointError string
	// Interrupted marks a partial result (SIGINT/SIGTERM or context
	// cancellation); Resumed marks a run restored from a checkpoint.
	Interrupted bool
	Resumed     bool
}

// UniqueBugs returns the distinct detected bugs in detection order.
func (r *CampaignResult) UniqueBugs() []*buginject.Bug {
	var out []*buginject.Bug
	for _, f := range r.Findings {
		out = append(out, f.Bug)
	}
	return out
}

// BugIDs returns the detected bug IDs as a set.
func (r *CampaignResult) BugIDs() map[string]bool {
	out := map[string]bool{}
	for _, f := range r.Findings {
		out[f.Bug.ID] = true
	}
	return out
}

// ComponentCounts tallies detected bugs per JIT component.
func (r *CampaignResult) ComponentCounts() map[string]int {
	out := map[string]int{}
	for _, f := range r.Findings {
		out[f.Bug.Component]++
	}
	return out
}

// MedianDelta returns the median of FinalDeltas (0 when empty).
func (r *CampaignResult) MedianDelta() float64 {
	if len(r.FinalDeltas) == 0 {
		return 0
	}
	s := append([]float64(nil), r.FinalDeltas...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// PlanFindings counts findings surfaced by the plan-vs-plan oracle.
func (r *CampaignResult) PlanFindings() int {
	n := 0
	for _, f := range r.Findings {
		if f.Oracle == "plan-differential" {
			n++
		}
	}
	return n
}

// FaultCounts tallies harness faults per class.
func (r *CampaignResult) FaultCounts() map[harness.FaultClass]int {
	out := map[harness.FaultClass]int{}
	for _, f := range r.Faults {
		out[f.Class]++
	}
	return out
}

// RunCampaign fuzzes seeds sequentially (Algorithm 1 line 1) until the
// execution budget is exhausted, cycling the seed pool if needed. It
// delegates to the supervised execution engine in its zero
// configuration: sequential, deterministic, panic-contained, with no
// watchdog goroutine or persistence — so every experiment table and
// figure reproduces byte-identically. It panics with the error when
// RunCampaignContext fails: an unknown schedule mode, generator or
// style, or a backend fault while scoring seeds. Callers that can meet
// one of those call RunCampaignContext and handle the error.
func RunCampaign(cfg CampaignConfig) *CampaignResult {
	res, err := RunCampaignContext(context.Background(), cfg, harness.Config{})
	if err != nil {
		panic(fmt.Errorf("core: RunCampaign: %w", err))
	}
	return res
}

// RunCampaignContext runs a campaign under the fault-isolated harness.
// Per-seed fuzzing executes as supervised tasks: panics anywhere in the
// substrate become classified faults instead of killing the process, a
// wall-clock watchdog (hcfg.ExecTimeout) cancels hung executions, and
// pathological seeds are quarantined and skipped on later rounds. When
// hcfg.CheckpointPath is set the campaign state (executions, findings,
// per-seed mutator weights, RNG cursor, quarantine index) is
// snapshotted periodically and flushed on cancellation, and
// hcfg.ResumePath restores a snapshot so an interrupted campaign
// continues where it stopped. The per-task RNG seed is derived from
// cfg.Seed plus the global task index, so resume reproduces the exact
// random stream of an uninterrupted run.
//
// cfg.Workers > 1 shards task execution across a worker pool; the
// cursor-ordered merge keeps findings, deltas, faults, weights, and
// checkpoints byte-identical to a sequential run, and checkpoints
// always describe a merged prefix, so resume works identically under
// parallelism.
func RunCampaignContext(ctx context.Context, cfg CampaignConfig, hcfg harness.Config) (*CampaignResult, error) {
	if len(cfg.Seeds) == 0 {
		return &CampaignResult{}, nil
	}
	c, err := newCampaign(ctx, cfg, hcfg)
	if err != nil {
		return nil, err
	}
	eng := newEngine(ctx, c.sup, cfg.Workers, c.cursor, c.roundLen, c.task)
	defer eng.stop()
	for c.res.Executions < c.cfg.Budget {
		if ctx.Err() != nil {
			c.res.Interrupted = true
			break
		}
		if !c.startRound() {
			break // a full round made no progress: the pool is dead
		}
		if !c.merge(ctx, eng.do(c.cursor)) {
			// Shutdown raced the task; leave the cursor on it so a
			// resume re-runs it instead of recording a phantom error.
			c.res.Interrupted = true
			break
		}
		c.cursor++
		c.checkpoint(false)
	}
	c.checkpoint(true)
	return c.res, nil
}

// campaign is one run of the campaign loop, split into stages: prepare
// (newCampaign), round start, task, merge and checkpoint. newCampaign
// is the only place that decides whether a feature is on; an off
// feature is a nil field whose methods do nothing, so an off-mode
// campaign runs the same code with fewer effects.
type campaign struct {
	cfg     CampaignConfig
	hcfg    harness.Config
	sup     *harness.Supervisor
	res     *CampaignResult
	seen    map[string]bool               // bug IDs already in res.Findings
	weights map[string]map[string]float64 // mutator weights per "seed#rN" task
	cursor  int                           // global task index == RNG cursor
	// roundProgressed: some task of the current round fuzzed its seed.
	roundProgressed bool
	lastCkptExec    int
	parsed          *corpus.ParseCache
	sched           *corpus.Scheduler // nil: schedule off
	gen             *genRuntime       // nil: generators off
	// armFor resolves a cursor to its seed index and plan mode.
	armFor   func(cursor int) (int, jit.PlanMode)
	roundLen int // > 0: the engine's round barrier (see newEngine)
}

// newCampaign is the prepare stage: it normalises the config, decodes
// the resume checkpoint, scores or distills the pool, builds the
// scheduler and the generators, opens the supervisor and restores the
// checkpointed state.
func newCampaign(ctx context.Context, cfg CampaignConfig, hcfg harness.Config) (*campaign, error) {
	if len(cfg.Targets) == 0 {
		cfg.Targets = []jvm.Spec{jvm.Reference()}
	}
	schedMode, err := corpus.ParseScheduleMode(string(cfg.SeedSchedule))
	if err != nil {
		return nil, err
	}
	genNames, err := generate.Normalize(cfg.Generators, cfg.Styles)
	if err != nil {
		return nil, err
	}

	// Resume state decodes up front: the generator subsystem needs the
	// checkpoint's slot overlay and pinned template extras before the
	// pool is prepared, while findings/counters restore later (they need
	// the supervisor). Decoding once keeps both views consistent.
	var ck *harness.Checkpoint
	st := &campaignState{}
	if hcfg.ResumePath != "" {
		if ck, err = harness.LoadCheckpoint(hcfg.ResumePath); err != nil {
			return nil, err
		}
		if err := json.Unmarshal(ck.State, st); err != nil {
			return nil, fmt.Errorf("core: resume state: %w", err)
		}
	}
	c := &campaign{
		cfg:     cfg,
		hcfg:    hcfg,
		res:     &CampaignResult{},
		seen:    map[string]bool{},
		weights: map[string]map[string]float64{},
	}

	// Corpus intelligence: scoring feeds both distillation (shrink the
	// pool to its maximally-diverse subset) and the power schedule.
	// Both are pure functions of the seed sources and cfg.Seed, so a
	// resumed or handed-off campaign reconstructs the same pool and the
	// same scheduler. Scoring dry-runs are corpus preparation, not
	// fuzzing: like triage-reduction probes, they don't count against
	// Budget.
	if schedMode == corpus.SchedulePower || cfg.DistillSeeds {
		feats, err := ScoreSeeds(ctx, c.cfg.Seeds, cfg.Executor, cfg.ScoreCachePath)
		if err != nil {
			return nil, err
		}
		if cfg.DistillSeeds {
			keptIdx := corpus.Distill(feats, 0, 0)
			seeds := make([]corpus.Seed, 0, len(keptIdx))
			kept := make([]*corpus.Features, 0, len(keptIdx))
			for _, i := range keptIdx {
				seeds = append(seeds, c.cfg.Seeds[i])
				kept = append(kept, feats[i])
			}
			c.cfg.Seeds, feats = seeds, kept
		}
		if schedMode == corpus.SchedulePower {
			names := make([]string, len(c.cfg.Seeds))
			for i, s := range c.cfg.Seeds {
				names[i] = s.Name
			}
			c.sched = corpus.NewScheduler(names, corpus.DiversityScores(feats),
				corpus.PlanModesFor(cfg.Fuzz.PlanFuzz), cfg.Seed)
		}
	}

	// Generator subsystem: build the configured sources over the
	// post-distill pool, then (on resume) replay the checkpoint's slot
	// overlay so the pool matches the interrupted run exactly. Templates
	// mine the pre-overlay pool — the same sources a fresh run mined —
	// and the pinned extras come from the checkpoint, so the template
	// set is identical across resume and handoff.
	if genNames != nil {
		// Round refreshes overwrite pool slots in place; work on a copy
		// so the caller's slice is untouched.
		c.cfg.Seeds = append([]corpus.Seed(nil), c.cfg.Seeds...)
		extras := cfg.TemplateExtras
		if ck != nil {
			if st.Generate == nil {
				return nil, fmt.Errorf("core: resume: campaign configured with generators but checkpoint has no generator state; resume with -generators=randprog")
			}
			extras = st.Generate.Extras
		}
		if c.gen, err = newGenRuntime(c.cfg, extras); err != nil {
			return nil, err
		}
		if c.sched != nil {
			c.sched.EnableGenerators(c.gen.ids())
		}
		if ck != nil {
			c.gen.st = st.Generate.Clone()
			for _, sl := range c.gen.st.Slots {
				if sl.Index < 0 || sl.Index >= len(c.cfg.Seeds) {
					return nil, fmt.Errorf("core: resume: generator slot index %d out of range (pool has %d seeds)", sl.Index, len(c.cfg.Seeds))
				}
				c.cfg.Seeds[sl.Index] = corpus.Seed{Name: sl.Name, Source: sl.Source, Gen: sl.Gen}
				c.sched.ReplaceSeed(sl.Index, sl.Name)
			}
		}
	} else if st.Generate != nil {
		return nil, fmt.Errorf("core: resume: checkpoint carries generator state; resume with the same -generators configuration")
	}
	if st.Schedule != nil && c.sched == nil {
		return nil, fmt.Errorf("core: resume: checkpoint carries power-schedule state; resume with the schedule set to power")
	}

	if c.sup, err = harness.New(hcfg); err != nil {
		return nil, err
	}
	if ck != nil {
		if err := c.restore(ck, st); err != nil {
			return nil, err
		}
	}

	// Hot-path caches. The parse cache makes each seed parse once per
	// campaign instead of once per round; the compile cache shares
	// compiled methods across the legs of one final mutant's
	// differentials and holds only that program's. Both are transparent
	// — a hit is indistinguishable from a miss — so results stay
	// byte-identical (determinism tests pin this).
	if c.cfg.Fuzz.CompileCache == nil {
		c.cfg.Fuzz.CompileCache = jit.NewCache(0)
	}
	c.parsed = cfg.ParseCache
	if c.parsed == nil {
		c.parsed = corpus.NewParseCache()
	}
	// The campaign-level backend choice propagates to every per-seed
	// fuzzer unless the fuzz config already pins its own.
	if cfg.Executor != nil && c.cfg.Fuzz.Executor == nil {
		c.cfg.Fuzz.Executor = cfg.Executor
	}

	// Off: cursor order under the configured plan mode. On: the round
	// plan, whose arm's plan mode overrides PlanFuzz.
	n := len(c.cfg.Seeds)
	c.armFor = func(cursor int) (int, jit.PlanMode) { return cursor % n, c.cfg.Fuzz.PlanFuzz }
	if c.sched != nil {
		c.armFor = c.sched.ArmFor
	}
	if c.sched != nil || c.gen != nil {
		// The slot plan and the pool refresh are written at round
		// boundaries; the engine's round barrier makes those writes
		// happen-before any worker reads tasks of the round.
		c.roundLen = n
	}
	return c, nil
}

// startRound is the round-start stage, run before every task. At a
// round boundary it ends a campaign whose last round made no progress.
// Then the generators refresh the pool and the schedule plans the
// round, before the engine dispatches any of its tasks; both do nothing
// for a round already refreshed and planned, restored ones included.
func (c *campaign) startRound() bool {
	round, i := c.cursor/len(c.cfg.Seeds), c.cursor%len(c.cfg.Seeds)
	if i == 0 && round > 0 {
		if !c.roundProgressed {
			return false
		}
		c.roundProgressed = false
	}
	c.gen.refreshPool(round, c.cfg.Seeds, c.cfg.Seed, c.sched)
	c.sched.StartRound(round)
	return true
}

// task is the task stage: it builds the supervised task at a cursor.
// Everything a task needs — seed, plan mode, round, target, RNG seed —
// derives from the cursor alone, which is what lets parallel workers
// execute tasks out of order and still merge deterministically.
func (c *campaign) task(cursor int) harness.Task {
	seedIdx, mode := c.armFor(cursor)
	seed := c.cfg.Seeds[seedIdx]
	fcfg := c.cfg.Fuzz
	fcfg.PlanFuzz = mode
	fcfg.Target = c.cfg.Targets[cursor%len(c.cfg.Targets)]
	fcfg.Seed = c.cfg.Seed + int64(cursor)
	return harness.Task{
		ID:       seed.Name,
		SeedName: seed.Name,
		Round:    cursor / len(c.cfg.Seeds),
		Source:   seed.Source,
		Run: func(tctx context.Context) (any, error) {
			return NewFuzzer(fcfg).FuzzSeedContext(tctx, seed.Name, c.parsed.Parse(seed))
		},
	}
}

// merge is the merge stage: it folds the outcome of the task at the
// cursor into the result, the schedule and the finding and progress
// hooks. It returns false, merging nothing, when the task failed
// because the campaign is shutting down.
func (c *campaign) merge(ctx context.Context, out *harness.Outcome) bool {
	round := c.cursor / len(c.cfg.Seeds)
	seedIdx, _ := c.armFor(c.cursor)
	seed := c.cfg.Seeds[seedIdx]
	pr := Progress{Cursor: c.cursor}
	switch {
	case out.Skipped:
		// A quarantined seed must stop winning budget.
		c.res.SkippedQuarantined++
		c.observe(seedIdx, seed, 0, 0, true)
	case out.Fault != nil:
		// The harness quarantines the faulting task under the seed's
		// name; later rounds would skip it anyway, so it retires now.
		c.res.Faults = append(c.res.Faults, out.Fault)
		pr.Fault = out.Fault
		c.observe(seedIdx, seed, 0, 0, true)
	case out.Err != nil:
		if ctx.Err() != nil {
			return false
		}
		c.res.SeedErrors = append(c.res.SeedErrors, SeedError{SeedName: seed.Name, Round: round, Err: out.Err.Error()})
		c.observe(seedIdx, seed, 0, 0, false)
	default:
		fr := out.Value.(*FuzzResult)
		taskKey := fmt.Sprintf("%s#r%d", seed.Name, round)
		c.roundProgressed = true
		c.res.Executions += fr.Executions
		c.res.SeedsFuzzed++
		c.res.FinalDeltas = append(c.res.FinalDeltas, fr.FinalDelta)
		pr.Delta, pr.HasDelta = fr.FinalDelta, true
		if fr.Weights != nil {
			c.weights[taskKey] = fr.Weights
		}
		if fr.HeapExhaustions > 0 {
			pr.Fault = reportHeapExhaustion(c.sup, seed, taskKey, round, fr)
			c.res.Faults = append(c.res.Faults, pr.Fault)
		}
		nBugs := 0
		for _, fd := range fr.Findings {
			if fd.Bug == nil {
				continue
			}
			nBugs++
			class := harness.FaultCrash
			if fd.Oracle == "differential" || fd.Oracle == "plan-differential" {
				class = harness.FaultMiscompile
			}
			f := Finding{
				Bug:         fd.Bug,
				Oracle:      fd.Oracle,
				SeedName:    seed.Name,
				Target:      c.cfg.Targets[c.cursor%len(c.cfg.Targets)],
				AtExecution: c.res.Executions,
				Mutators:    fd.Mutators,
				Program:     fr.Final,
				Harness:     &harness.FaultContext{Class: class, Retries: out.Retries},
				Cursor:      c.cursor,
				Round:       round,
				ChainLen:    len(fd.Mutators),
				OBV:         fr.FinalOBV,
				Divergence:  fd.Divergence,
				PlanID:      fd.PlanID,
				GeneratorID: seed.Gen,
			}
			// Every occurrence streams to the triage hook — duplicates
			// of an already-seen bug are exactly what a triage layer
			// counts — while the campaign result keeps only the first.
			if c.cfg.OnFinding != nil {
				c.cfg.OnFinding(f)
			}
			if !c.seen[fd.Bug.ID] {
				c.seen[fd.Bug.ID] = true
				c.res.Findings = append(c.res.Findings, f)
			}
		}
		// Baseline heap exhaustion quarantines the seed itself (see
		// reportHeapExhaustion), so its arms retire.
		c.observe(seedIdx, seed, fr.FinalDelta, nBugs, fr.HeapExhaustions > 0 && len(fr.Records) == 0)
	}
	if c.cfg.OnProgress != nil {
		pr.Executions = c.res.Executions
		pr.SeedsFuzzed = c.res.SeedsFuzzed
		pr.Findings = len(c.res.Findings)
		pr.PlanFindings = c.res.PlanFindings()
		pr.Faults = len(c.res.Faults)
		pr.SeedErrors = len(c.res.SeedErrors)
		pr.SkippedQuarantined = c.res.SkippedQuarantined
		pr.ScheduleArms = c.sched.ArmCount()
		pr.ScheduleEnergy = c.sched.TotalEnergy()
		pr.GeneratedSeeds = c.gen.generated()
		c.cfg.OnProgress(pr)
	}
	return true
}

// observe credits a merged task's yield to its (seed, plan-mode) arm
// and to the generator that emitted its seed. retire first pins every
// arm of a quarantined seed to zero energy.
func (c *campaign) observe(seedIdx int, seed corpus.Seed, delta float64, nBugs int, retire bool) {
	if retire {
		c.sched.RetireSeed(seedIdx)
	}
	c.sched.Observe(c.cursor, delta, nBugs)
	c.sched.ObserveGen(seed.Gen, delta, nBugs)
}

// checkpoint is the checkpoint stage: with a checkpoint path set, it
// snapshots the campaign when forced or when CheckpointEvery executions
// have merged since the last snapshot. A failed write is counted, not
// fatal: the next one retries with fresh state.
func (c *campaign) checkpoint(force bool) {
	if c.hcfg.CheckpointPath == "" ||
		!force && c.hcfg.CheckpointEvery > 0 && c.res.Executions-c.lastCkptExec < c.hcfg.CheckpointEvery {
		return
	}
	c.lastCkptExec = c.res.Executions
	if err := c.save(); err != nil {
		c.res.CheckpointErrors++
		c.res.LastCheckpointError = err.Error()
	}
}

// reportHeapExhaustion quarantines a heap-exhaustion trigger. A seed
// whose unmutated baseline already exhausts the heap (no iteration
// records) is quarantined under its own name so future rounds skip it;
// a single pathological mutant is stored under a round-scoped key, so
// the artifact is kept but the seed stays fuzzable.
func reportHeapExhaustion(sup *harness.Supervisor, seed corpus.Seed, taskKey string, round int, fr *FuzzResult) *harness.Fault {
	id := taskKey
	if len(fr.Records) == 0 {
		id = seed.Name
	}
	src := seed.Source
	if fr.FirstHeapExhausting != nil {
		src = lang.Format(fr.FirstHeapExhausting)
	}
	return sup.Report(&harness.Fault{
		Class:    harness.FaultHeapExhausted,
		TaskID:   id,
		SeedName: seed.Name,
		Round:    round,
		Message:  fmt.Sprintf("%d execution(s) exhausted the heap-allocation budget", fr.HeapExhaustions),
		Source:   src,
	})
}

// campaignState is the campaign-owned slice of a checkpoint: everything
// needed to continue a run with byte-identical results. The schedule
// block is present exactly when the campaign runs the power schedule,
// and the generate block exactly when the generator subsystem is on, so
// a feature left off leaves no trace in the snapshot.
type campaignState struct {
	TaskCursor         int                           `json:"task_cursor"`
	RoundProgressed    bool                          `json:"round_progressed"`
	Executions         int                           `json:"executions"`
	SeedsFuzzed        int                           `json:"seeds_fuzzed"`
	SkippedQuarantined int                           `json:"skipped_quarantined,omitempty"`
	FinalDeltas        []float64                     `json:"final_deltas,omitempty"`
	SeenBugs           []string                      `json:"seen_bugs,omitempty"`
	SeedErrors         []SeedError                   `json:"seed_errors,omitempty"`
	Findings           []findingSnapshot             `json:"findings,omitempty"`
	Faults             []*harness.Fault              `json:"faults,omitempty"`
	Weights            map[string]map[string]float64 `json:"weights,omitempty"`
	Schedule           *corpus.ScheduleState         `json:"schedule,omitempty"`
	Generate           *generate.State               `json:"generate,omitempty"`
}

// findingSnapshot is the JSON form of a Finding: bugs by catalog ID,
// programs as source text, both re-resolved on restore. It carries the
// provenance block (cursor, round, chain length), the OBV, and the
// divergence site; plan provenance (plan_id and the divergence's plan
// pair) is omitted when empty.
type findingSnapshot struct {
	BugID         string                `json:"bug_id"`
	Oracle        string                `json:"oracle"`
	SeedName      string                `json:"seed_name"`
	TargetImpl    string                `json:"target_impl"`
	TargetVersion int                   `json:"target_version"`
	AtExecution   int                   `json:"at_execution"`
	Mutators      []string              `json:"mutators,omitempty"`
	Program       string                `json:"program,omitempty"`
	Harness       *harness.FaultContext `json:"harness,omitempty"`
	Cursor        int                   `json:"cursor,omitempty"`
	Round         int                   `json:"round,omitempty"`
	ChainLen      int                   `json:"chain_len,omitempty"`
	OBV           []int64               `json:"obv,omitempty"`
	Divergence    *divergenceSnapshot   `json:"divergence,omitempty"`
	PlanID        string                `json:"plan_id,omitempty"`
	GeneratorID   string                `json:"generator_id,omitempty"`
}

// divergenceSnapshot serializes a jvm.Divergence by spec name, the same
// rendering the wire protocol and CLIs use. Plan differentials add the
// plan pair (spec differentials leave it empty).
type divergenceSnapshot struct {
	Modal         string `json:"modal"`
	Divergent     string `json:"divergent"`
	Index         int    `json:"index"`
	ModalPlan     string `json:"modal_plan,omitempty"`
	DivergentPlan string `json:"divergent_plan,omitempty"`
}

// save writes the checkpoint: the harness envelope around the
// campaign-owned state.
func (c *campaign) save() error {
	st := campaignState{
		TaskCursor:         c.cursor,
		RoundProgressed:    c.roundProgressed,
		Executions:         c.res.Executions,
		SeedsFuzzed:        c.res.SeedsFuzzed,
		SkippedQuarantined: c.res.SkippedQuarantined,
		FinalDeltas:        c.res.FinalDeltas,
		SeedErrors:         c.res.SeedErrors,
		Faults:             c.res.Faults,
		Weights:            c.weights,
		Schedule:           c.sched.State(),
		Generate:           c.gen.state(),
	}
	for id := range c.seen {
		st.SeenBugs = append(st.SeenBugs, id)
	}
	sort.Strings(st.SeenBugs)
	for _, f := range c.res.Findings {
		fs := findingSnapshot{
			BugID:         f.Bug.ID,
			Oracle:        f.Oracle,
			SeedName:      f.SeedName,
			TargetImpl:    string(f.Target.Impl),
			TargetVersion: f.Target.Version,
			AtExecution:   f.AtExecution,
			Mutators:      f.Mutators,
			Harness:       f.Harness,
			Cursor:        f.Cursor,
			Round:         f.Round,
			ChainLen:      f.ChainLen,
			PlanID:        f.PlanID,
			GeneratorID:   f.GeneratorID,
		}
		if f.OBV.Total() > 0 {
			fs.OBV = f.OBV.Slice()
		}
		if f.Divergence != nil {
			fs.Divergence = &divergenceSnapshot{
				Modal:         f.Divergence.Modal.Name(),
				Divergent:     f.Divergence.Divergent.Name(),
				Index:         f.Divergence.Index,
				ModalPlan:     f.Divergence.ModalPlan,
				DivergentPlan: f.Divergence.DivergentPlan,
			}
		}
		if f.Program != nil {
			fs.Program = lang.Format(f.Program)
		}
		st.Findings = append(st.Findings, fs)
	}
	raw, err := json.Marshal(st)
	if err != nil {
		return err
	}
	ck := &harness.Checkpoint{
		TaskCursor:  c.cursor,
		Executions:  c.res.Executions,
		Quarantined: c.sup.Q.IDs(),
		State:       raw,
	}
	return ck.Save(c.hcfg.CheckpointPath)
}

// restore loads a decoded checkpoint into the campaign newCampaign
// prepared, after it replayed the generator overlay and refused a
// checkpoint whose features differ from the config.
func (c *campaign) restore(ck *harness.Checkpoint, st *campaignState) error {
	// A nil block under power means the interrupted run stopped before
	// planning its first round — a fresh scheduler continues it
	// byte-identically.
	if err := c.sched.Restore(st.Schedule); err != nil {
		return fmt.Errorf("core: resume: %w", err)
	}
	c.cursor, c.roundProgressed, c.lastCkptExec = st.TaskCursor, st.RoundProgressed, st.Executions
	c.res.Resumed = true
	c.res.Executions = st.Executions
	c.res.SeedsFuzzed = st.SeedsFuzzed
	c.res.SkippedQuarantined = st.SkippedQuarantined
	c.res.FinalDeltas = st.FinalDeltas
	c.res.SeedErrors = st.SeedErrors
	c.res.Faults = st.Faults
	for _, id := range st.SeenBugs {
		c.seen[id] = true
	}
	for k, w := range st.Weights {
		c.weights[k] = w
	}
	for _, fs := range st.Findings {
		bug := buginject.ByID(fs.BugID)
		if bug == nil {
			return fmt.Errorf("core: resume: unknown bug %s in checkpoint", fs.BugID)
		}
		f := Finding{
			Bug:         bug,
			Oracle:      fs.Oracle,
			SeedName:    fs.SeedName,
			Target:      jvm.Spec{Impl: buginject.Impl(fs.TargetImpl), Version: fs.TargetVersion},
			AtExecution: fs.AtExecution,
			Mutators:    fs.Mutators,
			Harness:     fs.Harness,
			Cursor:      fs.Cursor,
			Round:       fs.Round,
			ChainLen:    fs.ChainLen,
			PlanID:      fs.PlanID,
			GeneratorID: fs.GeneratorID,
		}
		if fs.OBV != nil {
			obv, err := profile.OBVFromSlice(fs.OBV)
			if err != nil {
				return fmt.Errorf("core: resume: finding %s OBV: %w", fs.BugID, err)
			}
			f.OBV = obv
		}
		if fs.Divergence != nil {
			modal, err := jvm.ParseSpec(fs.Divergence.Modal)
			if err != nil {
				return fmt.Errorf("core: resume: finding %s divergence: %w", fs.BugID, err)
			}
			divergent, err := jvm.ParseSpec(fs.Divergence.Divergent)
			if err != nil {
				return fmt.Errorf("core: resume: finding %s divergence: %w", fs.BugID, err)
			}
			f.Divergence = &jvm.Divergence{
				Modal: modal, Divergent: divergent, Index: fs.Divergence.Index,
				ModalPlan: fs.Divergence.ModalPlan, DivergentPlan: fs.Divergence.DivergentPlan,
			}
		}
		if fs.Program != "" {
			p, err := lang.Parse(fs.Program)
			if err != nil {
				// The snapshotted program no longer parses (corrupt
				// checkpoint, grammar drift). The finding itself is still
				// valid — restore it without the program, but say so
				// instead of silently dropping the reproducer.
				c.res.SeedErrors = append(c.res.SeedErrors, SeedError{
					SeedName: fs.SeedName,
					Round:    -1, // resume-time, not a fuzzing round
					Err:      fmt.Sprintf("resume: snapshotted program for finding %s did not re-parse: %v", fs.BugID, err),
				})
			} else {
				f.Program = p
			}
		}
		c.res.Findings = append(c.res.Findings, f)
	}
	// Re-arm skip semantics for quarantined IDs whose artifacts are not
	// on disk (memory-only quarantine in the interrupted run).
	for _, id := range ck.Quarantined {
		if !c.sup.Q.Has(id) {
			c.sup.Report(&harness.Fault{
				Class:   harness.FaultHarness,
				TaskID:  id,
				Message: "quarantined in a previous run (artifact not persisted)",
			})
		}
	}
	return nil
}
