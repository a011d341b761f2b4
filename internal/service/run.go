package service

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/triage"
)

// Paths locates one campaign's on-disk state. An empty field turns its
// piece off: no task log, no resume, no score cache, no triage, or
// in-memory quarantine.
type Paths struct {
	Checkpoint string // campaign task log, appended after every task
	Resume     string // task log replayed before fuzzing
	ScoreCache string // seed feature vectors
	Triage     string // triage store directory
	Quarantine string // pathological mutants
}

// Run is one triaged campaign: a validated spec, the executor it runs
// on, where its state lives, and the caller's hooks. RunCampaign is the
// one place that wires the campaign loop to triage, so mopfuzzer, the
// daemon's runners and the fleet worker build the same job — a run
// handed off between any two of them resumes byte-identically.
type Run struct {
	Spec     core.JobSpec
	Executor exec.Executor // nil = in process
	Paths    Paths
	// ExecTimeout arms the harness watchdog per seed task (0 = step
	// fuel only).
	ExecTimeout time.Duration
	// ParseCache shares seed parses with other campaigns (nil = a
	// campaign-local cache).
	ParseCache *corpus.ParseCache
	// Now stamps triage occurrences (nil = wall clock).
	Now func() time.Time
	// Logf receives triage flush and close errors (nil = silent).
	Logf func(format string, args ...any)

	// Configure, when set, adjusts the campaign configuration after the
	// spec, paths and triage feed are applied.
	Configure func(*core.CampaignConfig)
	// OnProgress and OnTask observe the campaign (see
	// core.CampaignConfig.OnProgress and harness.Config.OnTask).
	OnProgress func(core.Progress)
	OnTask     func(done int)
	// OnFinding observes every finding occurrence before it is handed
	// to triage.
	OnFinding func(core.Finding)
	// Live, when set, is handed the open triage store and worker for the
	// length of the run.
	Live LiveTriage
}

// LiveTriage is a daemon's view of a running job's triage store:
// reports and /metrics read through it while the job runs. RunCampaign
// holds the lock while it opens the store and calls Attach, and while
// it calls Detach — with the drained worker's final counts — and closes
// the store, so a reader that opens the same store on its own never
// races a live writer.
type LiveTriage interface {
	sync.Locker
	Attach(*triage.Store, *triage.Worker)
	Detach(triage.Stats)
}

// RunCampaign runs r to completion, interruption (ctx) or error. With a
// triage directory it opens the store, starts a triage worker, mines
// the store's minimized reproducers for templates, feeds every finding
// occurrence to the worker, and after the campaign drains the worker
// and closes the store, in that order. The returned stats are the
// triage worker's (zero without triage).
func RunCampaign(ctx context.Context, r Run) (*core.CampaignResult, triage.Stats, error) {
	ccfg := r.Spec.Campaign(r.Executor)
	ccfg.ParseCache = r.ParseCache
	ccfg.ScoreCachePath = r.Paths.ScoreCache
	ccfg.OnProgress = r.OnProgress
	ccfg.OnFinding = r.OnFinding

	var store *triage.Store
	var worker *triage.Worker
	if r.Paths.Triage != "" {
		var err error
		if store, worker, err = r.openTriage(); err != nil {
			return nil, triage.Stats{}, err
		}
		worker.Start(ctx)
		// Bugs already found breed the scenarios that hunt for their
		// neighbors. On resume the checkpoint's pinned extras win inside
		// core, so a handoff stays byte-identical whatever the local
		// store holds now.
		ccfg.TemplateExtras = TemplateExtras(&r.Spec, store)
		ccfg.OnFinding = func(f core.Finding) {
			if r.OnFinding != nil {
				r.OnFinding(f)
			}
			worker.Submit(f)
		}
	}
	if r.Configure != nil {
		r.Configure(&ccfg)
	}

	res, err := core.RunCampaignContext(ctx, ccfg, harness.Config{
		CheckpointPath: r.Paths.Checkpoint,
		ResumePath:     r.Paths.Resume,
		ExecTimeout:    r.ExecTimeout,
		QuarantineDir:  r.Paths.Quarantine,
		OnTask:         r.OnTask,
	})
	if worker == nil {
		return res, triage.Stats{}, err
	}
	// Drain the triage queue (reductions may still be running), then
	// release the store.
	if cerr := worker.Close(); cerr != nil {
		r.logf("triage store flush: %v", cerr)
	}
	stats := worker.Stats()
	if r.Live != nil {
		r.Live.Lock()
		defer r.Live.Unlock()
		r.Live.Detach(stats)
	}
	if cerr := store.Close(); cerr != nil {
		r.logf("triage store close: %v", cerr)
	}
	return res, stats, err
}

func (r *Run) openTriage() (*triage.Store, *triage.Worker, error) {
	if r.Live != nil {
		r.Live.Lock()
		defer r.Live.Unlock()
	}
	store, err := triage.Open(r.Paths.Triage)
	if err != nil {
		return nil, nil, err
	}
	wcfg := triage.WorkerConfig{Store: store, Executor: r.Executor}
	if r.Now != nil {
		wcfg.Now = func() int64 { return r.Now().Unix() }
	}
	worker, err := triage.NewWorker(wcfg)
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	if r.Live != nil {
		r.Live.Attach(store, worker)
	}
	return store, worker, nil
}

func (r *Run) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// TemplateExtras gathers the triage store's minimized reproducers for
// template mining — the found-bugs-breed-scenarios feed. Nil when the
// spec's generators are off, since core mines no templates then.
func TemplateExtras(spec *core.JobSpec, store *triage.Store) []string {
	if !spec.GeneratorsOn() {
		return nil
	}
	var out []string
	store.MinimizedPrograms(func(_, program string) bool {
		out = append(out, program)
		return true
	})
	return out
}
