package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
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
	Cursor int // task just merged
	// TaskExecutions counts the executions of the just-merged task alone,
	// so a consumer of a resumed run can tell its own work from the
	// restored total.
	TaskExecutions     int
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
	// Provenance: where in the campaign the bug surfaced. Cursor is the
	// global task cursor (seed, round, target, and RNG seed all derive
	// from it) and Round the corpus round; the mutation-chain length at
	// detection is len(Mutators).
	Cursor int
	Round  int
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
// hcfg.CheckpointPath is set the campaign keeps a task log there: a
// header with the task-stream config, then one record per merged task,
// appended after the merge. hcfg.ResumePath folds such a log back
// through the merge, so an interrupted campaign continues where it
// stopped. The per-task RNG seed is derived from cfg.Seed plus the
// global task index, so resume reproduces the exact random stream of an
// uninterrupted run.
//
// cfg.Workers > 1 shards task execution across a worker pool; the
// cursor-ordered merge keeps findings, deltas, faults and the log
// byte-identical to a sequential run, and the log only ever holds a
// merged prefix, so resume works identically under parallelism.
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
		rec, fr := c.record(ctx, eng.do(c.cursor))
		if rec == nil {
			// Shutdown raced the task; leave the cursor on it so a
			// resume re-runs it instead of recording a phantom error.
			c.res.Interrupted = true
			break
		}
		c.apply(rec)
		c.emit(rec, fr)
		c.cursor++
		c.checkpoint(rec)
	}
	c.checkpoint(nil)
	if c.log != nil {
		c.checkpointFailed(c.log.Close())
	}
	return c.res, nil
}

// campaign is one run of the campaign loop, split into stages: prepare
// (newCampaign), round start, task, merge and checkpoint. newCampaign
// is the only place that decides whether a feature is on; an off
// feature is a nil field whose methods do nothing, so an off-mode
// campaign runs the same code with fewer effects.
type campaign struct {
	cfg    CampaignConfig
	sup    *harness.Supervisor
	res    *CampaignResult
	seen   map[string]bool // bug IDs already in res.Findings
	cursor int             // global task index == RNG cursor
	// roundProgressed: some task of the current round fuzzed its seed.
	roundProgressed bool
	parsed          *corpus.ParseCache
	sched           *corpus.Scheduler      // nil: schedule off
	gen             *genRuntime            // nil: generators off
	log             *harness.CheckpointLog // nil: no checkpoint path
	// armFor resolves a cursor to its seed index and plan mode.
	armFor   func(cursor int) (int, jit.PlanMode)
	roundLen int // > 0: the engine's round barrier (see newEngine)
}

// newCampaign is the prepare stage: it normalises the config, decodes
// the resume log, scores or distills the pool, checks the log's header
// against the config, builds the scheduler and the generators, opens the
// supervisor and folds the log's records in.
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
	var ck *harness.Checkpoint
	var resumed logHeader
	if hcfg.ResumePath != "" {
		if ck, err = harness.LoadCheckpoint(hcfg.ResumePath); err != nil {
			return nil, err
		}
		if err := json.Unmarshal(ck.Header, &resumed); err != nil {
			return nil, fmt.Errorf("core: resume: checkpoint header: %w", err)
		}
	}
	c := &campaign{
		cfg:  cfg,
		res:  &CampaignResult{},
		seen: map[string]bool{},
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
			c.sched = corpus.NewScheduler(corpus.DiversityScores(feats), corpus.PlanModesFor(cfg.Fuzz.PlanFuzz), cfg.Seed)
		}
	}

	// The header pins what the task stream derives from. A log written
	// under another config would replay into a different campaign, so
	// resume refuses it before any task runs; the pinned template extras
	// come from the log, so resume and handoff mine the same templates.
	hdr := logHeader{Config: c.taskStream(schedMode, genNames)}
	if genNames != nil {
		hdr.Extras = cfg.TemplateExtras
	}
	if ck != nil {
		if d := firstDiff(reflect.ValueOf(resumed.Config), reflect.ValueOf(hdr.Config), ""); d != "" {
			return nil, fmt.Errorf("core: resume: the checkpoint's %s differs from this campaign's; resume with the configuration that wrote it", d)
		}
		hdr.Extras = resumed.Extras
	}

	// Generator subsystem: build the configured sources over the
	// post-distill pool. Round refreshes overwrite pool slots in place;
	// work on a copy so the caller's slice is untouched.
	if genNames != nil {
		c.cfg.Seeds = append([]corpus.Seed(nil), c.cfg.Seeds...)
		if c.gen, err = newGenRuntime(c.cfg, hdr.Extras); err != nil {
			return nil, err
		}
		if c.sched != nil {
			c.sched.EnableGenerators(c.gen.ids())
		}
	}

	if c.sup, err = harness.New(hcfg); err != nil {
		return nil, err
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

	if ck == nil {
		raw, err := json.Marshal(hdr)
		if err != nil {
			return nil, err
		}
		ck = &harness.Checkpoint{Header: raw}
	} else {
		c.res.Resumed = true
		for i, raw := range ck.Records {
			if err := c.replay(raw); err != nil {
				return nil, fmt.Errorf("core: resume: checkpoint record %d: %w", i+1, err)
			}
		}
	}
	if hcfg.CheckpointPath != "" {
		c.log = harness.NewCheckpointLog(hcfg.CheckpointPath, ck)
	}
	return c, nil
}

// replay folds one record of the resume log through the steps the live
// loop runs around a merge: round start, apply, cursor advance. No task
// runs; the pool refreshes, the round plans and the quarantine index
// come back as the interrupted run built them.
func (c *campaign) replay(raw []byte) error {
	rec, err := decodeRecord(raw)
	if err != nil {
		return err
	}
	if c.res.Executions > math.MaxInt-rec.Executions {
		return fmt.Errorf("%d executions overflow the campaign's %d", rec.Executions, c.res.Executions)
	}
	if !c.startRound() {
		return fmt.Errorf("it follows a round that made no progress")
	}
	c.apply(rec)
	c.cursor++
	return nil
}

// startRound is the round-start stage, run before every task. At a
// round boundary it ends a campaign whose last round made no progress.
// Then the generators refresh the pool and the schedule plans the
// round, before the engine dispatches any of its tasks; both do nothing
// for a round already refreshed and planned.
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

// record is the first step of the merge stage: it turns the outcome of
// the task at the cursor into the record apply folds in, quarantining a
// heap-exhaustion trigger on the way. Resume reads records from the log
// instead. It returns nil when the task failed because the campaign is
// shutting down, and the fuzzing result when the task fuzzed its seed.
func (c *campaign) record(ctx context.Context, out *harness.Outcome) (*taskRecord, *FuzzResult) {
	switch {
	case out.Skipped:
		// A quarantined seed must stop winning budget.
		return &taskRecord{Skipped: true, Retire: true}, nil
	case out.Fault != nil:
		// The harness quarantines the faulting task under the seed's
		// name; later rounds would skip it anyway, so it retires now.
		return &taskRecord{Fault: out.Fault, Retire: true}, nil
	case out.Err != nil:
		if ctx.Err() != nil {
			return nil, nil
		}
		return &taskRecord{Err: out.Err.Error()}, nil
	}
	fr := out.Value.(*FuzzResult)
	rec := &taskRecord{Executions: fr.Executions, Delta: &fr.FinalDelta}
	if fr.HeapExhaustions > 0 {
		seedIdx, _ := c.armFor(c.cursor)
		rec.Fault = reportHeapExhaustion(c.sup, c.cfg.Seeds[seedIdx], c.cursor/len(c.cfg.Seeds), fr)
		// Baseline heap exhaustion quarantines the seed itself (see
		// reportHeapExhaustion), so its arms retire.
		rec.Retire = len(fr.Records) == 0
	}
	for _, fd := range fr.Findings {
		if fd.Bug == nil {
			continue
		}
		rec.Bugs++
		known := c.seen[fd.Bug.ID] || slices.ContainsFunc(rec.Findings, func(f Finding) bool { return f.Bug.ID == fd.Bug.ID })
		if !known {
			rec.Findings = append(rec.Findings, newFinding(fd, fr))
		}
	}
	return rec, fr
}

// newFinding is a finding occurrence of a fuzzing result, without its
// campaign provenance (see stamp).
func newFinding(fd BugFinding, fr *FuzzResult) Finding {
	return Finding{
		Bug:        fd.Bug,
		Oracle:     fd.Oracle,
		Mutators:   fd.Mutators,
		Program:    fr.Final,
		OBV:        fr.FinalOBV,
		Divergence: fd.Divergence,
		PlanID:     fd.PlanID,
	}
}

// apply folds the record of the task at the cursor into the result, the
// seen-bug set, the quarantine index and the schedule. It is the one
// place that changes campaign state, shared by the live merge and by
// resume, which replays the log through it.
func (c *campaign) apply(rec *taskRecord) {
	seedIdx, _ := c.armFor(c.cursor)
	seed := c.cfg.Seeds[seedIdx]
	switch {
	case rec.Skipped:
		c.res.SkippedQuarantined++
	case rec.Err != "":
		c.res.SeedErrors = append(c.res.SeedErrors, SeedError{SeedName: seed.Name, Round: c.cursor / len(c.cfg.Seeds), Err: rec.Err})
	case rec.Delta != nil:
		c.roundProgressed = true
		c.res.Executions += rec.Executions
		c.res.SeedsFuzzed++
		c.res.FinalDeltas = append(c.res.FinalDeltas, *rec.Delta)
	}
	if rec.Fault != nil {
		c.res.Faults = append(c.res.Faults, rec.Fault)
		c.sup.Q.Mark(rec.Fault)
	}
	for _, f := range rec.Findings {
		if !c.seen[f.Bug.ID] {
			c.seen[f.Bug.ID] = true
			c.stamp(&f)
			c.res.Findings = append(c.res.Findings, f)
		}
	}
	// Credit the task's yield to its (seed, plan-mode) arm and to the
	// generator that emitted its seed; a retired seed's arms go to zero
	// energy first.
	if rec.Retire {
		c.sched.RetireSeed(seedIdx)
	}
	c.sched.Observe(c.cursor, rec.delta(), rec.Bugs)
	c.sched.ObserveGen(seed.Gen, rec.delta(), rec.Bugs)
}

// stamp fills in where in the campaign a finding of the task at the
// cursor surfaced. Called after the task's executions were applied.
func (c *campaign) stamp(f *Finding) {
	seedIdx, _ := c.armFor(c.cursor)
	seed := c.cfg.Seeds[seedIdx]
	f.SeedName, f.GeneratorID = seed.Name, seed.Gen
	f.Target = c.cfg.Targets[c.cursor%len(c.cfg.Targets)]
	f.AtExecution = c.res.Executions
	f.Cursor, f.Round = c.cursor, c.cursor/len(c.cfg.Seeds)
}

// emit runs the merge's hooks after apply: every finding occurrence of
// the task goes to OnFinding — repeats of an already-seen bug are
// exactly what a triage layer counts — and then the progress snapshot
// goes to OnProgress. Resume runs no hooks.
func (c *campaign) emit(rec *taskRecord, fr *FuzzResult) {
	if c.cfg.OnFinding != nil && fr != nil {
		for _, fd := range fr.Findings {
			if fd.Bug != nil {
				f := newFinding(fd, fr)
				c.stamp(&f)
				c.cfg.OnFinding(f)
			}
		}
	}
	if c.cfg.OnProgress == nil {
		return
	}
	c.cfg.OnProgress(Progress{
		Cursor:             c.cursor,
		TaskExecutions:     rec.Executions,
		Executions:         c.res.Executions,
		SeedsFuzzed:        c.res.SeedsFuzzed,
		Findings:           len(c.res.Findings),
		PlanFindings:       c.res.PlanFindings(),
		Faults:             len(c.res.Faults),
		SeedErrors:         len(c.res.SeedErrors),
		SkippedQuarantined: c.res.SkippedQuarantined,
		Delta:              rec.delta(),
		HasDelta:           rec.Delta != nil,
		Fault:              rec.Fault,
		ScheduleArms:       c.sched.ArmCount(),
		ScheduleEnergy:     c.sched.TotalEnergy(),
		GeneratedSeeds:     c.gen.generated(),
	})
}

// checkpoint is the checkpoint stage: with a checkpoint path set, it
// appends the task's record (nil: none) to the log and flushes the log.
// A failed write is counted, not fatal: the record stays queued and the
// next flush retries it.
func (c *campaign) checkpoint(rec *taskRecord) {
	if c.log == nil {
		return
	}
	if rec != nil {
		line, err := rec.encode()
		if err != nil {
			// A record that cannot be written ends the log: writing
			// a later one would leave a gap in it.
			c.checkpointFailed(err)
			c.checkpointFailed(c.log.Close())
			c.log = nil
			return
		}
		c.log.Add(line)
	}
	c.checkpointFailed(c.log.Flush())
}

// checkpointFailed counts a failed checkpoint write (nil: none).
func (c *campaign) checkpointFailed(err error) {
	if err != nil {
		c.res.CheckpointErrors++
		c.res.LastCheckpointError = err.Error()
	}
}

// reportHeapExhaustion quarantines a heap-exhaustion trigger. A seed
// whose unmutated baseline already exhausts the heap (no iteration
// records) is quarantined under its own name so future rounds skip it;
// a single pathological mutant is stored under a round-scoped key, so
// the artifact is kept but the seed stays fuzzable.
func reportHeapExhaustion(sup *harness.Supervisor, seed corpus.Seed, round int, fr *FuzzResult) *harness.Fault {
	id := fmt.Sprintf("%s#r%d", seed.Name, round)
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
