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
// figure reproduces byte-identically.
func RunCampaign(cfg CampaignConfig) *CampaignResult {
	// The zero harness config performs no I/O, so this cannot fail.
	res, _ := RunCampaignContext(context.Background(), cfg, harness.Config{})
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
	if len(cfg.Targets) == 0 {
		cfg.Targets = []jvm.Spec{jvm.Reference()}
	}
	res := &CampaignResult{}
	if len(cfg.Seeds) == 0 {
		return res, nil
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
	var ckSt *campaignState
	if hcfg.ResumePath != "" {
		ck, err = harness.LoadCheckpoint(hcfg.ResumePath)
		if err != nil {
			return nil, err
		}
		ckSt = &campaignState{}
		if err := json.Unmarshal(ck.State, ckSt); err != nil {
			return nil, fmt.Errorf("core: resume state: %w", err)
		}
	}

	// Corpus intelligence: scoring feeds both distillation (shrink the
	// pool to its maximally-diverse subset) and the power schedule.
	// Both are pure functions of the seed sources and cfg.Seed, so a
	// resumed or handed-off campaign reconstructs the same pool and the
	// same scheduler. Scoring dry-runs are corpus preparation, not
	// fuzzing: like triage-reduction probes, they don't count against
	// Budget.
	var sched *corpus.Scheduler
	if schedMode == corpus.SchedulePower || cfg.DistillSeeds {
		feats, err := ScoreSeeds(ctx, cfg.Seeds, cfg.Executor, cfg.ScoreCachePath)
		if err != nil {
			return nil, err
		}
		if cfg.DistillSeeds {
			keptIdx := corpus.Distill(feats, 0, 0)
			seeds := make([]corpus.Seed, 0, len(keptIdx))
			kept := make([]*corpus.Features, 0, len(keptIdx))
			for _, i := range keptIdx {
				seeds = append(seeds, cfg.Seeds[i])
				kept = append(kept, feats[i])
			}
			cfg.Seeds, feats = seeds, kept
		}
		if schedMode == corpus.SchedulePower {
			names := make([]string, len(cfg.Seeds))
			for i, s := range cfg.Seeds {
				names[i] = s.Name
			}
			sched = corpus.NewScheduler(names, corpus.DiversityScores(feats),
				corpus.PlanModesFor(cfg.Fuzz.PlanFuzz), cfg.Seed)
		}
	}

	// Generator subsystem: build the configured sources over the
	// post-distill pool, then (on resume) replay the checkpoint's slot
	// overlay so the pool matches the interrupted run exactly. Templates
	// mine the pre-overlay pool — the same sources a fresh run mined —
	// and the pinned extras come from the checkpoint, so the template
	// set is identical across resume and handoff.
	var genRT *genRuntime
	if genNames != nil {
		// Round refreshes overwrite pool slots in place; work on a copy
		// so the caller's slice is untouched.
		cfg.Seeds = append([]corpus.Seed(nil), cfg.Seeds...)
		extras := cfg.TemplateExtras
		if ckSt != nil {
			if ckSt.Generate == nil {
				return nil, fmt.Errorf("core: resume: campaign configured with generators but checkpoint has no generator state; resume with -generators=randprog")
			}
			extras = ckSt.Generate.Extras
		}
		genRT, err = newGenRuntime(cfg, extras)
		if err != nil {
			return nil, err
		}
		if ckSt != nil {
			genRT.st = ckSt.Generate.Clone()
			for _, sl := range genRT.st.Slots {
				if sl.Index < 0 || sl.Index >= len(cfg.Seeds) {
					return nil, fmt.Errorf("core: resume: generator slot index %d out of range (pool has %d seeds)", sl.Index, len(cfg.Seeds))
				}
				cfg.Seeds[sl.Index] = corpus.Seed{Name: sl.Name, Source: sl.Source, Gen: sl.Gen}
				if sched != nil {
					sched.ReplaceSeed(sl.Index, sl.Name)
				}
			}
		}
		if sched != nil {
			sched.EnableGenerators(genRT.ids())
		}
	} else if ckSt != nil && ckSt.Generate != nil {
		return nil, fmt.Errorf("core: resume: checkpoint carries generator state; resume with the same -generators configuration")
	}

	sup, err := harness.New(hcfg)
	if err != nil {
		return nil, err
	}

	seen := map[string]bool{}
	weights := map[string]map[string]float64{}
	cursor := 0 // global task index == RNG cursor
	roundProgressed := false

	if ck != nil {
		if err := restoreCampaign(ck, ckSt, sup, res, seen, weights, &cursor, &roundProgressed, sched); err != nil {
			return nil, err
		}
		res.Resumed = true
	}

	nSeeds := len(cfg.Seeds)
	lastCkptExec := res.Executions
	flush := func() {
		if hcfg.CheckpointPath == "" {
			return
		}
		// Checkpoint failures must not kill the campaign — the next
		// flush retries with fresh state — but they must not be silent
		// either: count them and keep the last message for the report.
		if err := saveCampaign(hcfg.CheckpointPath, sup, res, seen, weights, cursor, roundProgressed, sched, genRT); err != nil {
			res.CheckpointErrors++
			res.LastCheckpointError = err.Error()
		}
	}

	// Campaign-scoped hot-path caches. The parse cache makes each seed
	// parse once per campaign instead of once per round; the compile
	// cache shares compiled methods across rounds, mutants, and
	// differential targets. Both are transparent — a hit is
	// indistinguishable from a miss — so results stay byte-identical
	// (determinism tests pin this).
	if cfg.Fuzz.CompileCache == nil {
		cfg.Fuzz.CompileCache = jit.NewCache(0)
	}
	parsed := cfg.ParseCache
	if parsed == nil {
		parsed = corpus.NewParseCache()
	}

	// The campaign-level backend choice propagates to every per-seed
	// fuzzer unless the fuzz config already pins its own.
	if cfg.Executor != nil && cfg.Fuzz.Executor == nil {
		cfg.Fuzz.Executor = cfg.Executor
	}

	// mkTask builds the task at a cursor position. Everything a task
	// needs — seed, round, target, RNG seed — derives from the cursor
	// alone, which is what lets parallel workers execute tasks out of
	// order and still merge deterministically. Under the power schedule
	// the cursor resolves through the current round's slot plan (and the
	// arm's plan mode overrides PlanFuzz); the engine's round barrier
	// guarantees workers only see cursors whose round is planned.
	mkTask := func(cursor int) harness.Task {
		round, i := cursor/nSeeds, cursor%nSeeds
		seedIdx := i
		fcfg := cfg.Fuzz
		if sched != nil {
			var mode jit.PlanMode
			seedIdx, mode = sched.ArmFor(cursor)
			fcfg.PlanFuzz = mode
		}
		seed := cfg.Seeds[seedIdx]
		fcfg.Target = cfg.Targets[cursor%len(cfg.Targets)]
		fcfg.Seed = cfg.Seed + int64(cursor)
		return harness.Task{
			ID:       seed.Name,
			SeedName: seed.Name,
			Round:    round,
			Source:   seed.Source,
			Run: func(tctx context.Context) (any, error) {
				f := NewFuzzer(fcfg)
				return f.FuzzSeedContext(tctx, seed.Name, parsed.Parse(seed))
			},
		}
	}
	roundLen := 0
	if sched != nil || genRT != nil {
		// Both the schedule's slot plan and the generator pool refresh
		// are written on the campaign goroutine at round boundaries; the
		// engine's round barrier makes those writes happen-before any
		// worker reads tasks of the round.
		roundLen = nSeeds
	}
	eng := newEngine(ctx, sup, cfg.Workers, cursor, roundLen, mkTask)
	defer eng.stop()

	for {
		if res.Executions >= cfg.Budget {
			break
		}
		if ctx.Err() != nil {
			res.Interrupted = true
			break
		}
		round, i := cursor/nSeeds, cursor%nSeeds
		if i == 0 && round > 0 {
			if !roundProgressed {
				break // a full round made no progress: the pool is dead
			}
			roundProgressed = false
		}
		if genRT != nil && i == 0 && round > genRT.st.LastRound {
			// Round-boundary corpus refresh, before the round is planned
			// or any of its tasks dispatched. On resume the restored
			// LastRound and slot overlay already describe this round, so
			// the refresh is not replayed.
			genRT.refreshPool(round, cfg.Seeds, cfg.Seed, sched)
		}

		seedIdx := i
		if sched != nil {
			// Plan the round before the engine dispatches any of its
			// tasks (the dispatch inside eng.do only releases cursors in
			// the merge round, so the plan write happens-before every
			// worker read of it).
			sched.StartRound(round)
			seedIdx, _ = sched.ArmFor(cursor)
		}
		seed := cfg.Seeds[seedIdx]
		target := cfg.Targets[cursor%len(cfg.Targets)]
		taskKey := fmt.Sprintf("%s#r%d", seed.Name, round)

		out := eng.do(cursor)

		var taskDelta float64
		var taskHasDelta bool
		var taskFault *harness.Fault

		switch {
		case out.Skipped:
			res.SkippedQuarantined++
			if sched != nil {
				// A quarantined seed must stop winning budget: retire
				// every arm of it (energy pinned to zero).
				sched.RetireSeed(seedIdx)
				sched.Observe(cursor, 0, 0)
				if seed.Gen != "" {
					sched.ObserveGen(seed.Gen, 0, 0)
				}
			}
		case out.Fault != nil:
			res.Faults = append(res.Faults, out.Fault)
			taskFault = out.Fault
			if sched != nil {
				// The harness quarantines the faulting task under the
				// seed's name; later rounds would skip it anyway, so the
				// arm retires now.
				sched.RetireSeed(seedIdx)
				sched.Observe(cursor, 0, 0)
				if seed.Gen != "" {
					sched.ObserveGen(seed.Gen, 0, 0)
				}
			}
		case out.Err != nil:
			if ctx.Err() != nil {
				// Shutdown raced the task; leave the cursor on it so a
				// resume re-runs it instead of recording a phantom error.
				res.Interrupted = true
				flush()
				return res, nil
			}
			res.SeedErrors = append(res.SeedErrors, SeedError{SeedName: seed.Name, Round: round, Err: out.Err.Error()})
			if sched != nil {
				sched.Observe(cursor, 0, 0)
				if seed.Gen != "" {
					sched.ObserveGen(seed.Gen, 0, 0)
				}
			}
		default:
			fr := out.Value.(*FuzzResult)
			roundProgressed = true
			res.Executions += fr.Executions
			res.SeedsFuzzed++
			res.FinalDeltas = append(res.FinalDeltas, fr.FinalDelta)
			taskDelta, taskHasDelta = fr.FinalDelta, true
			if fr.Weights != nil {
				weights[taskKey] = fr.Weights
			}
			if sched != nil {
				nBugs := 0
				for _, fd := range fr.Findings {
					if fd.Bug != nil {
						nBugs++
					}
				}
				sched.Observe(cursor, fr.FinalDelta, nBugs)
				if seed.Gen != "" {
					// Credit the generator bandit arm with the same yield
					// the (seed, plan) arm earned.
					sched.ObserveGen(seed.Gen, fr.FinalDelta, nBugs)
				}
			}
			if fr.HeapExhaustions > 0 {
				taskFault = reportHeapExhaustion(sup, seed, taskKey, round, fr)
				res.Faults = append(res.Faults, taskFault)
				if sched != nil && len(fr.Records) == 0 {
					// Baseline heap exhaustion quarantines the seed
					// itself (see reportHeapExhaustion): retire its arms.
					sched.RetireSeed(seedIdx)
				}
			}
			for _, fd := range fr.Findings {
				if fd.Bug == nil {
					continue
				}
				class := harness.FaultCrash
				if fd.Oracle == "differential" || fd.Oracle == "plan-differential" {
					class = harness.FaultMiscompile
				}
				f := Finding{
					Bug:         fd.Bug,
					Oracle:      fd.Oracle,
					SeedName:    seed.Name,
					Target:      target,
					AtExecution: res.Executions,
					Mutators:    fd.Mutators,
					Program:     fr.Final,
					Harness:     &harness.FaultContext{Class: class, Retries: out.Retries},
					Cursor:      cursor,
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
				if cfg.OnFinding != nil {
					cfg.OnFinding(f)
				}
				if seen[fd.Bug.ID] {
					continue
				}
				seen[fd.Bug.ID] = true
				res.Findings = append(res.Findings, f)
			}
		}
		if cfg.OnProgress != nil {
			pr := Progress{
				Cursor:             cursor,
				Executions:         res.Executions,
				SeedsFuzzed:        res.SeedsFuzzed,
				Findings:           len(res.Findings),
				PlanFindings:       res.PlanFindings(),
				Faults:             len(res.Faults),
				SeedErrors:         len(res.SeedErrors),
				SkippedQuarantined: res.SkippedQuarantined,
				Delta:              taskDelta,
				HasDelta:           taskHasDelta,
				Fault:              taskFault,
			}
			if sched != nil {
				pr.ScheduleArms = sched.ArmCount()
				pr.ScheduleEnergy = sched.TotalEnergy()
			}
			if genRT != nil {
				pr.GeneratedSeeds = genRT.generated()
			}
			cfg.OnProgress(pr)
		}
		cursor++
		if hcfg.CheckpointPath != "" &&
			(hcfg.CheckpointEvery <= 0 || res.Executions-lastCkptExec >= hcfg.CheckpointEvery) {
			flush()
			lastCkptExec = res.Executions
		}
	}
	flush()
	return res, nil
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

func saveCampaign(path string, sup *harness.Supervisor, res *CampaignResult,
	seen map[string]bool, weights map[string]map[string]float64, cursor int, roundProgressed bool,
	sched *corpus.Scheduler, genRT *genRuntime) error {
	st := campaignState{
		TaskCursor:         cursor,
		RoundProgressed:    roundProgressed,
		Executions:         res.Executions,
		SeedsFuzzed:        res.SeedsFuzzed,
		SkippedQuarantined: res.SkippedQuarantined,
		FinalDeltas:        res.FinalDeltas,
		SeedErrors:         res.SeedErrors,
		Faults:             res.Faults,
		Weights:            weights,
		Schedule:           sched.State(),
		Generate:           genRT.state(),
	}
	for id := range seen {
		st.SeenBugs = append(st.SeenBugs, id)
	}
	sort.Strings(st.SeenBugs)
	for _, f := range res.Findings {
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
		TaskCursor:  cursor,
		Executions:  res.Executions,
		Quarantined: sup.Q.IDs(),
		State:       raw,
	}
	return ck.Save(path)
}

func restoreCampaign(ck *harness.Checkpoint, stp *campaignState, sup *harness.Supervisor, res *CampaignResult,
	seen map[string]bool, weights map[string]map[string]float64, cursor *int, roundProgressed *bool,
	sched *corpus.Scheduler) error {
	st := *stp
	if st.Schedule != nil && sched == nil {
		return fmt.Errorf("core: resume: checkpoint carries power-schedule state; resume with the schedule set to power")
	}
	if sched != nil {
		// A nil block under power means the interrupted run stopped
		// before planning its first round — a fresh scheduler continues
		// it byte-identically.
		if err := sched.Restore(st.Schedule); err != nil {
			return fmt.Errorf("core: resume: %w", err)
		}
	}
	*cursor = st.TaskCursor
	*roundProgressed = st.RoundProgressed
	res.Executions = st.Executions
	res.SeedsFuzzed = st.SeedsFuzzed
	res.SkippedQuarantined = st.SkippedQuarantined
	res.FinalDeltas = st.FinalDeltas
	res.SeedErrors = st.SeedErrors
	res.Faults = st.Faults
	for _, id := range st.SeenBugs {
		seen[id] = true
	}
	for k, w := range st.Weights {
		weights[k] = w
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
				res.SeedErrors = append(res.SeedErrors, SeedError{
					SeedName: fs.SeedName,
					Round:    -1, // resume-time, not a fuzzing round
					Err:      fmt.Sprintf("resume: snapshotted program for finding %s did not re-parse: %v", fs.BugID, err),
				})
			} else {
				f.Program = p
			}
		}
		res.Findings = append(res.Findings, f)
	}
	// Re-arm skip semantics for quarantined IDs whose artifacts are not
	// on disk (memory-only quarantine in the interrupted run).
	for _, id := range ck.Quarantined {
		if !sup.Q.Has(id) {
			sup.Report(&harness.Fault{
				Class:   harness.FaultHarness,
				TaskID:  id,
				Message: "quarantined in a previous run (artifact not persisted)",
			})
		}
	}
	return nil
}
