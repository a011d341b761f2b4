// Command mopfuzzer runs the fuzzer, mirroring the paper artifact's CLI:
//
//	# fuzz a generated corpus against a target, reporting findings
//	mopfuzzer -jdk openjdk-17 -seeds 20 -budget 2000
//
//	# fuzz one seed file with guidance and print the final mutant
//	mopfuzzer -jdk openjdk-mainline -case seed.mj -enable_profile_guide=true
//
//	# reduce a bug-triggering case before reporting
//	mopfuzzer -jdk openjdk-17 -case seed.mj -reduce
//
//	# run executions in isolated minijvm child processes: a warm child
//	# pool with batched requests, or one fresh child per execution
//	mopfuzzer -jdk openjdk-17 -backend pool -minijvm ./minijvm
//	mopfuzzer -jdk openjdk-17 -backend pool -minijvm ./minijvm -pool-recycle-after 1
//
//	# profile a campaign (feed the next perf PR)
//	mopfuzzer -jdk openjdk-17 -budget 2000 -cpuprofile cpu.out -memprofile mem.out
//
//	# deduplicate + minimize findings into a persistent triage store
//	mopfuzzer -jdk openjdk-17 -seeds 20 -budget 2000 -triage-dir ./bugs -report report.json
//
//	# spend budget by scored (seed, plan-mode) energy instead of cursor order
//	mopfuzzer -jdk openjdk-17 -seeds 20 -budget 2000 -schedule power
//
//	# score a corpus and print its maximally-diverse subset as JSON
//	mopfuzzer -seeds 30 -distill -score-cache scores.json
//
//	# refresh the corpus between rounds with template + style generators
//	mopfuzzer -jdk openjdk-17 -seeds 20 -budget 2000 -generators randprog,template,style
//
//	# target specific pass interactions; minimized triage findings feed template mining
//	mopfuzzer -jdk openjdk-17 -budget 2000 -styles boxing-loop,coarsen-store -triage-dir ./bugs
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/lang"
	"repro/internal/reduce"
	"repro/internal/triage"
)

func main() {
	// The campaign spec's flags default to the daemon's JSON defaults,
	// except for the corpus size, the worker count and the generator
	// list; "off" is spelled out so -h names it.
	spec := core.JobSpec{
		SeedCount:  20,
		Workers:    min(runtime.GOMAXPROCS(0), core.MaxWorkers),
		PlanFuzz:   "off",
		Schedule:   "off",
		Generators: []string{"randprog"},
	}
	spec.RegisterFlags(flag.CommandLine)
	var backend exec.Backend
	backend.RegisterFlags(flag.CommandLine)
	caseFile := flag.String("case", "", "fuzz a single seed file instead of the generated corpus")
	guide := flag.Bool("enable_profile_guide", true, "profile-data-based mutator weighting")
	fixedMP := flag.Bool("fixed_mp", true, "iterate on a fixed mutation point (false = MopFuzzer_r)")
	doReduce := flag.Bool("reduce", false, "reduce bug-triggering mutants before reporting")
	dumpMutant := flag.Bool("dump", false, "print the final mutant source")
	checkpoint := flag.String("checkpoint", "", "periodically snapshot campaign state to this JSON file")
	resume := flag.String("resume", "", "restore campaign state from this checkpoint file before fuzzing")
	execTimeout := flag.Duration("exec-timeout", 0, "wall-clock watchdog per seed task (0 = step fuel only)")
	quarantineDir := flag.String("quarantine-dir", "", "persist pathological mutants (panic/hang/heap-exhaustion triggers) here")
	doDistill := flag.Bool("distill", false, "score the corpus, print the distillation report JSON, and exit without fuzzing")
	scoreCache := flag.String("score-cache", "", "persist seed feature vectors to this JSON file (resumes and re-runs skip re-profiling)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file for the whole run")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	triageDir := flag.String("triage-dir", "", "deduplicate findings by root-cause signature, reduce each new one once, and persist the corpus in this store directory")
	reportPath := flag.String("report", "", "write a JSON triage report to this file after the campaign (requires -triage-dir)")
	verbose := flag.Bool("v", false, "verbose campaign summary: parse-cache hit rates and generator emission counts")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mopfuzzer:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "mopfuzzer:", err)
			}
		}()
	}

	if err := spec.Validate(); err != nil {
		fatal(err)
	}
	executor, err := backend.Open()
	if err != nil {
		fatal(err)
	}
	defer exec.CloseExecutor(executor)
	cfg := spec.FuzzConfig(executor)
	cfg.Guided = *guide
	cfg.FixedMP = *fixedMP

	if *caseFile != "" {
		fuzzOne(*caseFile, cfg, *doReduce, *dumpMutant)
		return
	}

	// SIGINT/SIGTERM cancel the campaign between seed tasks; the
	// harness flushes a final checkpoint and we print the partial
	// result below before exiting.
	ctx, stop := harness.ShutdownContext(context.Background())
	defer stop()
	hcfg := harness.Config{
		ExecTimeout:    *execTimeout,
		QuarantineDir:  *quarantineDir,
		CheckpointPath: *checkpoint,
		ResumePath:     *resume,
	}
	if hcfg.CheckpointPath == "" && hcfg.ResumePath != "" {
		// Resuming without an explicit -checkpoint keeps snapshotting to
		// the same file, so repeated interrupt/resume cycles just work.
		hcfg.CheckpointPath = hcfg.ResumePath
	}

	// The triage pipeline is strictly additive: without -triage-dir no
	// worker exists, OnFinding stays nil, and campaign output is
	// byte-identical to previous releases.
	if *reportPath != "" && *triageDir == "" {
		fatal(fmt.Errorf("-report requires -triage-dir"))
	}
	var tstore *triage.Store
	var tworker *triage.Worker
	if *triageDir != "" {
		tstore, err = triage.Open(*triageDir)
		if err != nil {
			fatal(err)
		}
		tworker, err = triage.NewWorker(triage.WorkerConfig{Store: tstore, Executor: executor})
		if err != nil {
			fatal(err)
		}
		tworker.Start(ctx)
	}

	if *doDistill {
		// Score-and-report mode: one profiling dry-run per seed, the
		// distillation report on stdout, no fuzzing. The same report a
		// daemon serves on POST /corpus/distill.
		_, rep, err := core.DistillSeeds(ctx, spec.Pool(), executor, *scoreCache, 0, 0)
		if err != nil {
			fatal(err)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	// Minimized triage findings feed template mining: bugs already found
	// breed the scenarios that hunt for their neighbors.
	var extras []string
	if tstore != nil {
		tstore.MinimizedPrograms(func(key, program string) bool {
			extras = append(extras, program)
			return true
		})
	}
	parsed := corpus.NewParseCache()
	ccfg := spec.Campaign(executor)
	ccfg.Fuzz = cfg
	ccfg.ScoreCachePath = *scoreCache
	ccfg.ParseCache = parsed
	ccfg.TemplateExtras = extras
	if tworker != nil {
		ccfg.OnFinding = func(f core.Finding) { tworker.Submit(f) }
	}
	var genSeeds int
	if *verbose {
		ccfg.OnProgress = func(p core.Progress) { genSeeds = p.GeneratedSeeds }
	}
	res, err := core.RunCampaignContext(ctx, ccfg, hcfg)
	if err != nil {
		fatal(err)
	}
	status := ""
	if res.Resumed {
		status += " (resumed)"
	}
	if res.Interrupted {
		status += " (interrupted — partial result)"
	}
	fmt.Printf("campaign: %d executions, %d seeds fuzzed, %d unique bugs%s\n",
		res.Executions, res.SeedsFuzzed, len(res.Findings), status)
	if n := len(res.SeedErrors); n > 0 {
		fmt.Printf("  %d seed error(s):\n", n)
		for _, se := range res.SeedErrors {
			fmt.Printf("    round %d %s: %s\n", se.Round, se.SeedName, se.Err)
		}
	}
	for _, f := range res.Findings {
		gen := ""
		if f.GeneratorID != "" {
			gen = ", seed by " + f.GeneratorID
		}
		fmt.Printf("  [%6d exec] %-14s %-26s %s (%s, via %s oracle%s)\n",
			f.AtExecution, f.Bug.ID, f.Bug.Component, f.Bug.Kind, f.Target.Name(), f.Oracle, gen)
		if *doReduce && f.Program != nil {
			pipe := &reduce.Pipeline{Executor: executor}
			reduced := pipe.ReduceFinding(context.Background(), f.Program, f.Bug, f.Target)
			fmt.Printf("           reduced %d -> %d statements\n", reduced.StmtsBefore, reduced.StmtsAfter)
			if *dumpMutant {
				fmt.Println(indent(lang.Format(reduced.Program)))
			}
		}
	}
	for _, f := range res.Faults {
		q := f.QuarantinePath
		if q == "" {
			q = "<memory>"
		}
		fmt.Printf("  fault  %-14s %-10s seed %s round %d, retries %d, quarantine %s\n",
			f.Class, f.Component, f.SeedName, f.Round, f.Retries, q)
		if *dumpMutant {
			fmt.Println(indent(f.HsErrReport(cfg.Target.Name())))
		}
	}
	if res.SkippedQuarantined > 0 {
		fmt.Printf("  %d task(s) skipped (quarantined seeds)\n", res.SkippedQuarantined)
	}
	if *verbose {
		st := parsed.Stats()
		total := st.Hits + st.Misses
		rate := 0.0
		if total > 0 {
			rate = 100 * float64(st.Hits) / float64(total)
		}
		fmt.Printf("parse cache: %d hit(s), %d miss(es) (%.1f%% hit rate), %d evicted, %d resident\n",
			st.Hits, st.Misses, rate, st.Evictions, st.Size)
		if genSeeds > 0 {
			fmt.Printf("generators: %d seed(s) emitted into the pool\n", genSeeds)
		}
		if len(extras) > 0 {
			fmt.Printf("generators: %d minimized triage finding(s) mined for templates\n", len(extras))
		}
	}
	if tworker != nil {
		// Drain the triage queue (reductions may still be running), then
		// report what the store now holds.
		if err := tworker.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "mopfuzzer: triage store flush:", err)
		}
		st := tworker.Stats()
		fmt.Printf("triage: %d finding(s) -> %d new signature(s), %d duplicate(s), %d reduced, %d quarantined (store: %s)\n",
			st.Received, st.Novel, st.Duplicates, st.Reduced, st.Quarantined, tstore.Dir())
		rep := triage.BuildReport(tstore)
		fmt.Print(rep.Text())
		if *reportPath != "" {
			data, err := rep.JSON()
			if err == nil {
				err = os.WriteFile(*reportPath, data, 0o644)
			}
			if err != nil {
				fatal(fmt.Errorf("writing triage report: %w", err))
			}
			fmt.Printf("triage: JSON report written to %s\n", *reportPath)
		}
		if err := tstore.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "mopfuzzer: triage store close:", err)
		}
	}
	if res.CheckpointErrors > 0 {
		fmt.Fprintf(os.Stderr, "mopfuzzer: warning: %d checkpoint write(s) failed (last: %s) — -resume may replay completed work\n",
			res.CheckpointErrors, res.LastCheckpointError)
	}
	if res.Interrupted && hcfg.CheckpointPath != "" {
		fmt.Printf("campaign: checkpoint flushed to %s — continue with -resume %s\n", hcfg.CheckpointPath, hcfg.CheckpointPath)
	}
}

func fuzzOne(path string, cfg core.Config, doReduce, dump bool) {
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	f := core.NewFuzzer(cfg)
	res, err := f.FuzzSeed(path, prog)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("fuzzed %s: %d executions, MP=stmt#%d, final Δ(seed)=%.1f\n",
		path, res.Executions, res.MPID, res.FinalDelta)
	for _, r := range res.Records {
		status := ""
		if r.Skipped {
			status = " (skipped)"
		}
		if r.CrashBugID != "" {
			status = " CRASH " + r.CrashBugID
		}
		fmt.Printf("  iter %2d %-30s Δ=%6.1f w=%5.2f%s\n", r.Iter, r.Mutator, r.Delta, r.Weight, status)
	}
	for _, fd := range res.Findings {
		fmt.Printf("finding: %s in %s via %s oracle\n", fd.Bug.ID, fd.Bug.Component, fd.Oracle)
		if doReduce {
			pipe := &reduce.Pipeline{Executor: cfg.Executor}
			reduced := pipe.ReduceFinding(context.Background(), res.Final, fd.Bug, cfg.Target)
			fmt.Printf("reduced %d -> %d statements in %d rounds\n",
				reduced.StmtsBefore, reduced.StmtsAfter, reduced.Rounds)
			if dump {
				fmt.Println(indent(lang.Format(reduced.Program)))
			}
			return
		}
	}
	if dump {
		fmt.Println("-- final mutant --")
		fmt.Println(indent(lang.Format(res.Final)))
	}
}

func indent(s string) string {
	return "    " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n    ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mopfuzzer:", err)
	os.Exit(1)
}
