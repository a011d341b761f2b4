package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/triage"
)

// Errors the HTTP layer maps to status codes.
var (
	// ErrDraining rejects submissions while the daemon is shutting down.
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrUnknownJob names a job ID with no record.
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrNotQueued rejects mutations of a job that already started.
	ErrNotQueued = errors.New("service: job is not queued")
	// ErrTerminal rejects cancellation of a finished job.
	ErrTerminal = errors.New("service: job already finished")
)

// Config tunes the scheduler (one per daemon).
type Config struct {
	// Dir is the persistent state directory (job records, campaign
	// checkpoints, triage stores, quarantines).
	Dir string
	// Runners bounds concurrently running campaigns (default 1).
	Runners int
	// Exec is the execution backend for jobs that do not pin one; a job
	// that pins one overrides only its name. All pooled jobs share one
	// daemon-wide pool, built from Exec, so warm children amortize across
	// jobs; it is closed when the scheduler drains.
	Exec exec.Backend
	// ExecTimeout arms the harness wall-clock watchdog per seed task
	// (0 = step fuel only).
	ExecTimeout time.Duration
	// Now is the clock seam (nil = wall clock). Timestamps on job
	// records and triage occurrences derive from it.
	Now func() time.Time
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
	// OnTask, when set, observes (jobID, tasks done) after every
	// supervised campaign task — the deterministic-interruption test
	// seam, mirroring harness.Config.OnTask.
	OnTask func(jobID string, done int)
}

// RemoteRunner runs queued jobs somewhere other than the local runner
// pool — the fleet coordinator's seam. The scheduler stays the single
// owner of the job lifecycle; a remote runner only executes and
// reports.
type RemoteRunner interface {
	// RunRemote executes the job on a remote worker, blocking until the
	// job settles, the assignment is lost, or ctx is cancelled (daemon
	// drain or DELETE — the runner should stop the worker best-effort
	// and report Interrupted). It must call NoteRemoteStart once a
	// worker accepts the assignment.
	RunRemote(ctx context.Context, j *Job) RemoteOutcome
}

// RemoteOutcome is a remote runner's verdict on one assignment. A
// local run ends in the same shape, so one settle step covers both.
type RemoteOutcome struct {
	// Declined: no live worker could take the job — run it locally (the
	// zero-workers graceful-degradation path).
	Declined bool
	// Requeue: the assignment was lost (lease expired, worker died)
	// after any checkpoint handoff already landed on disk; the job goes
	// back on the queue and resumes from that checkpoint.
	Requeue bool
	// Interrupted: the run stopped without finishing (drain or cancel);
	// the scheduler settles it exactly like a local interrupted run.
	Interrupted bool
	// Summary is the finished campaign digest (nil unless done).
	Summary *ResultSummary
	// Stats is the worker-side triage segment for the job record.
	Stats triage.Stats
	// Err marks the job failed.
	Err error
	// Worker names the assignee, for logs.
	Worker string
}

// Scheduler owns the daemon's job lifecycle: submissions queue, a
// bounded runner pool dispatches them onto RunCampaignContext under the
// fault-isolating harness, per-job checkpoints make a daemon restart
// resume in-flight jobs from disk, and per-job triage stores
// deduplicate and minimize the findings the API serves.
type Scheduler struct {
	cfg    Config
	store  *JobStore
	reg    *Registry
	m      daemonMetrics
	broker *Broker
	remote RemoteRunner // optional: fleet dispatch before local fallback

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[string]*Job
	order   []string // submission order
	queue   []string
	nextID  int
	started bool
	ctx     context.Context

	wg sync.WaitGroup

	// parse is the daemon-wide bounded parse cache shared by every
	// campaign, so identical seed sources (re-submitted corpora,
	// resumed jobs) parse once per daemon instead of once per job. Its
	// hit/miss/eviction counters feed /metrics.
	parse *corpus.ParseCache

	// poolMu guards the lazily-created daemon-wide warm child pool
	// shared by every job on the "pool" backend.
	poolMu   sync.Mutex
	execPool *exec.Pool

	// reportMu serializes triage-store opens/closes per daemon, so a
	// /findings read of a finished job never races a runner opening the
	// same store (triage.Open trims partial trailing records, which must
	// not happen under a live writer).
	reportMu sync.Mutex
}

// NewScheduler opens the state directory, loads every persisted job,
// and re-queues the ones a previous daemon left queued or in flight —
// those resume from their campaign checkpoints when Start runs them.
func NewScheduler(cfg Config) (*Scheduler, error) {
	if cfg.Runners <= 0 {
		cfg.Runners = 1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	store, err := OpenJobStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	recs, quarantined, err := store.LoadAll()
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:    cfg,
		store:  store,
		reg:    &Registry{},
		broker: NewBroker(),
		jobs:   map[string]*Job{},
		parse:  corpus.NewParseCache(),
		nextID: NextID(recs),
	}
	s.cond = sync.NewCond(&s.mu)
	s.registerMetrics()
	for _, id := range quarantined {
		s.m.quarantined.Inc()
		s.logf("job %s: corrupt record quarantined to jobs-quarantined/ (startup continues)", id)
	}
	for _, rec := range recs {
		j := &Job{rec: *rec, dir: store.JobDir(rec.ID)}
		switch rec.State {
		case StateRunning, StateInterrupted:
			// The previous daemon drained (or died) mid-run; the campaign
			// checkpoint on disk carries the partial state, so the job goes
			// back on the queue and resumes exactly where it stopped. A
			// checkpoint that no longer decodes would fail that resume on
			// every restart, so quarantine the job instead of re-queueing
			// it — and instead of failing daemon startup.
			if bad := s.quarantineBadCheckpoint(j); bad {
				break
			}
			j.rec.State = StateQueued
			if err := store.Save(&j.rec); err != nil {
				return nil, err
			}
			s.queue = append(s.queue, rec.ID)
			s.logf("job %s: re-queued for resume (was %s)", rec.ID, rec.State)
		case StateQueued:
			if bad := s.quarantineBadCheckpoint(j); bad {
				break
			}
			s.queue = append(s.queue, rec.ID)
		}
		s.jobs[rec.ID] = j
		s.order = append(s.order, rec.ID)
	}
	return s, nil
}

// quarantineBadCheckpoint validates a restartable job's campaign
// checkpoint. A corrupt checkpoint log moves to
// checkpoint.json.corrupt and flips the job to StateQuarantined —
// counted in /metrics — so startup proceeds and every healthy job still
// resumes.
func (s *Scheduler) quarantineBadCheckpoint(j *Job) bool {
	id := j.rec.ID
	if !s.store.HasCheckpoint(id) {
		return false
	}
	if _, err := harness.LoadCheckpoint(s.store.CheckpointPath(id)); err == nil {
		return false
	} else {
		if qerr := s.store.QuarantineCheckpoint(id); qerr != nil {
			s.logf("job %s: set corrupt checkpoint aside: %v", id, qerr)
		}
		j.rec.State = StateQuarantined
		j.rec.Error = fmt.Sprintf("corrupt campaign checkpoint at restart: %v", err)
		j.rec.Finished = s.cfg.Now().Unix()
		if serr := s.store.Save(&j.rec); serr != nil {
			s.logf("job %s: persist quarantined state: %v", id, serr)
		}
		s.m.quarantined.Inc()
		s.logf("job %s: checkpoint corrupt, job quarantined (startup continues): %v", id, err)
		return true
	}
}

// SetRemote installs a remote runner (the fleet coordinator). Must be
// called before Start.
func (s *Scheduler) SetRemote(r RemoteRunner) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.remote = r
}

// Store exposes the underlying job store (paths for tests and tools).
func (s *Scheduler) Store() *JobStore { return s.store }

// ExecTimeout exposes the per-task watchdog deadline; fleet assignments
// mirror it so remote runs match local ones.
func (s *Scheduler) ExecTimeout() time.Duration { return s.cfg.ExecTimeout }

// Metrics exposes the daemon metrics registry; the fleet coordinator
// registers its series on it.
func (s *Scheduler) Metrics() *Registry { return s.reg }

// RenderMetrics writes the /metrics payload.
func (s *Scheduler) RenderMetrics(w io.Writer) { s.reg.Render(w) }

// Broker exposes the live event broker.
func (s *Scheduler) Broker() *Broker { return s.broker }

// Start launches the runner pool. Cancelling ctx is the drain signal:
// runners stop picking up queued jobs, running campaigns flush a final
// checkpoint and return interrupted, and Wait unblocks once every
// runner has exited.
func (s *Scheduler) Start(ctx context.Context) {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.ctx = ctx
	n := s.cfg.Runners
	s.mu.Unlock()
	for i := 0; i < n; i++ {
		s.wg.Add(1)
		go s.runner(ctx)
	}
	go func() {
		<-ctx.Done()
		// Broadcast under the lock: a runner that saw the context live
		// is then already waiting, so the wake-up cannot be lost.
		s.mu.Lock()
		s.cond.Broadcast() // wake idle runners so they exit
		s.mu.Unlock()
	}()
}

// Wait blocks until every runner has stopped (drain complete: all
// running campaigns checkpointed and their triage stores flushed).
func (s *Scheduler) Wait() {
	s.wg.Wait()
	// Runners are done: kill the warm children so a drained daemon
	// leaves no minijvm processes behind.
	s.poolMu.Lock()
	p := s.execPool
	s.poolMu.Unlock()
	if p != nil {
		p.Close()
	}
}

// Draining reports whether the scheduler has begun shutting down.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctx != nil && s.ctx.Err() != nil
}

// Submit validates a job spec, persists the job, and queues it.
func (s *Scheduler) Submit(spec core.JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctx != nil && s.ctx.Err() != nil {
		return nil, ErrDraining
	}
	id := FormatID(s.nextID)
	j := &Job{
		rec: jobRecord{ID: id, Spec: spec, State: StateQueued, Created: s.cfg.Now().Unix()},
		dir: s.store.JobDir(id),
	}
	if err := s.store.Save(&j.rec); err != nil {
		return nil, err
	}
	s.nextID++
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.queue = append(s.queue, id)
	s.m.accepted.Inc()
	if spec.PlanFuzz != "" && spec.PlanFuzz != "off" {
		s.m.planJobs.Inc()
	}
	if spec.GeneratorsOn() {
		s.m.genJobs.Inc()
	}
	s.cond.Signal()
	return j, nil
}

// Get returns the job with the given ID, or nil.
func (s *Scheduler) Get(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// JobsInOrder returns every job in submission order.
func (s *Scheduler) JobsInOrder() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel stops a job: a queued job goes terminal immediately, a running
// one has its campaign context cancelled (the runner marks it cancelled
// after the final checkpoint flush). Cancelling a finished job returns
// ErrTerminal.
func (s *Scheduler) Cancel(id string) (*Job, error) {
	j := s.Get(id)
	if j == nil {
		return nil, ErrUnknownJob
	}
	j.mu.Lock()
	switch j.rec.State {
	case StateQueued:
		j.rec.State = StateCancelled
		j.rec.Finished = s.cfg.Now().Unix()
		rec := j.rec
		j.mu.Unlock()
		if err := s.store.Save(&rec); err != nil {
			return nil, err
		}
		s.broker.Publish(id, Event{Type: "state", State: StateCancelled})
		return j, nil
	case StateRunning, StateInterrupted:
		j.cancelAsked = true
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return j, nil
	default:
		st := j.rec.State
		j.mu.Unlock()
		return nil, fmt.Errorf("%w (state %s)", ErrTerminal, st)
	}
}

// AddSeeds appends user seed programs to a queued job. Seeds are
// validated with corpus.Seed.TryParse, so a malformed program is an
// error here, never a campaign fault. A job that has started (or has
// checkpointed state awaiting resume) rejects the mutation: changing
// the seed pool would break resume determinism.
func (s *Scheduler) AddSeeds(id string, seeds []core.SeedSpec) (*Job, error) {
	j := s.Get(id)
	if j == nil {
		return nil, ErrUnknownJob
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rec.State != StateQueued {
		return nil, fmt.Errorf("%w (state %s)", ErrNotQueued, j.rec.State)
	}
	if s.store.HasCheckpoint(id) {
		return nil, fmt.Errorf("%w (job has checkpointed state awaiting resume)", ErrNotQueued)
	}
	if err := core.VetSeeds(seeds, len(j.rec.Spec.Seeds)); err != nil {
		return nil, err
	}
	j.rec.Spec.Seeds = append(j.rec.Spec.Seeds, seeds...)
	if err := s.store.Save(&j.rec); err != nil {
		return nil, err
	}
	return j, nil
}

// Report renders the job's triage findings — the same triage.Report
// (and serialization) that `triage report -json` emits. Running jobs
// read through the live store; finished ones open the store on demand.
func (s *Scheduler) Report(id string) (*triage.Report, error) {
	j := s.Get(id)
	if j == nil {
		return nil, ErrUnknownJob
	}
	j.mu.Lock()
	live := j.tstore
	j.mu.Unlock()
	if live != nil {
		return triage.BuildReport(live), nil
	}
	s.reportMu.Lock()
	defer s.reportMu.Unlock()
	// Re-check under reportMu: the job may have started in the window,
	// and a live writer must never race our open/close.
	j.mu.Lock()
	live = j.tstore
	j.mu.Unlock()
	if live != nil {
		return triage.BuildReport(live), nil
	}
	store, err := triage.Open(s.store.TriageDir(id))
	if err != nil {
		return nil, err
	}
	defer store.Close()
	return triage.BuildReport(store), nil
}

// runner is one worker of the bounded pool.
func (s *Scheduler) runner(ctx context.Context) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && ctx.Err() == nil {
			s.cond.Wait()
		}
		if ctx.Err() != nil {
			s.mu.Unlock()
			return
		}
		id := s.queue[0]
		s.queue = s.queue[1:]
		j := s.jobs[id]
		s.mu.Unlock()
		if j == nil || j.State() != StateQueued {
			continue // cancelled while queued
		}
		s.dispatch(ctx, j)
	}
}

// dispatch routes one claimed job: to the remote runner when one is
// installed and accepts it, to the local runner pool otherwise. The
// local path is also the graceful-degradation fallback — a coordinator
// with zero live workers still completes every job.
func (s *Scheduler) dispatch(ctx context.Context, j *Job) {
	s.mu.Lock()
	remote := s.remote
	s.mu.Unlock()
	if remote == nil {
		s.runJob(ctx, j)
		return
	}
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	j.mu.Lock()
	j.cancel = cancel
	j.cancelAsked = false
	j.mu.Unlock()
	out := remote.RunRemote(jctx, j)
	switch {
	case out.Declined:
		s.logf("job %s: no live worker, running locally", j.ID())
		s.runJob(ctx, j)
	case out.Requeue:
		s.requeue(j, out.Worker)
	default:
		s.settle(j, out)
	}
}

// requeue puts a job whose remote assignment was lost back on the
// queue. The checkpoint the worker last handed off is already on disk,
// so the next claim — remote or local — resumes from it.
func (s *Scheduler) requeue(j *Job, worker string) {
	id := j.ID()
	j.mu.Lock()
	j.rec.State = StateQueued
	j.rec.Requeues++
	j.cancel = nil
	rec := j.rec
	j.mu.Unlock()
	if err := s.store.Save(&rec); err != nil {
		s.logf("job %s: persist requeued state: %v", id, err)
	}
	s.m.requeues.Inc()
	s.broker.Publish(id, Event{Type: "state", State: StateQueued})
	s.logf("job %s: assignment lost (worker %s), re-queued for resume (requeues %d)", id, worker, rec.Requeues)
	s.mu.Lock()
	s.queue = append(s.queue, id)
	s.cond.Signal()
	s.mu.Unlock()
}

// settle records how a run ended — local or remote — as the job's
// state, and persists it.
func (s *Scheduler) settle(j *Job, out RemoteOutcome) {
	id := j.ID()
	j.mu.Lock()
	if j.rec.Triage == nil {
		j.rec.Triage = &TriageStats{}
	}
	j.rec.Triage.add(out.Stats)
	var state JobState
	switch {
	case out.Err != nil:
		state = StateFailed
		j.rec.Error = out.Err.Error()
		j.rec.Finished = s.cfg.Now().Unix()
	case out.Interrupted && j.cancelAsked:
		state = StateCancelled
		j.rec.Finished = s.cfg.Now().Unix()
	case out.Interrupted:
		// Drain: the last checkpoint (local, or the worker's handoff) is
		// on disk; the next daemon re-queues the job and resumes it.
		state = StateInterrupted
	default:
		state = StateDone
		j.rec.Result = out.Summary
		j.rec.Finished = s.cfg.Now().Unix()
	}
	j.rec.State = state
	j.cancel = nil
	// Persist before unlocking: a reader that sees the terminal state
	// must find it on disk too.
	if err := s.store.Save(&j.rec); err != nil {
		s.logf("job %s: persist final state: %v", id, err)
	}
	j.mu.Unlock()
	s.broker.Publish(id, Event{Type: "state", State: state})
	if out.Worker != "" {
		s.logf("job %s: %s (worker %s)", id, state, out.Worker)
	} else {
		s.logf("job %s: %s", id, state)
	}
}

// NoteRemoteStart records that a worker accepted the job's assignment:
// the fleet-mode analogue of runJob's mark-running step.
func (s *Scheduler) NoteRemoteStart(j *Job, worker string) {
	id := j.ID()
	j.mu.Lock()
	j.rec.State = StateRunning
	if j.rec.Started == 0 {
		j.rec.Started = s.cfg.Now().Unix()
	}
	if s.store.HasCheckpoint(id) {
		j.rec.Resumes++
	}
	j.rec.Worker = worker
	rec := j.rec
	j.mu.Unlock()
	if err := s.store.Save(&rec); err != nil {
		s.logf("job %s: persist running state: %v", id, err)
	}
	s.broker.Publish(id, Event{Type: "state", State: StateRunning})
	s.logf("job %s: running on worker %s (resumes %d)", id, worker, rec.Resumes)
}

// MergeTriage folds a worker-uploaded triage log (findings.jsonl bytes)
// into the job's persistent triage store. Signature dedup makes the
// merge idempotent: re-uploading overlapping segments — a dead worker's
// partial log followed by the finishing worker's full log — cannot
// produce duplicate findings. The log is checked as the store's own log
// is on open, and an invalid one merges nothing. Returns how many novel
// signatures the merge added.
func (s *Scheduler) MergeTriage(id string, log []byte) (added int, err error) {
	s.reportMu.Lock()
	defer s.reportMu.Unlock()
	// A live local store for this job would mean the scheduler itself is
	// running the campaign; fleet uploads only happen for remote
	// assignments, so opening on demand here is safe under reportMu.
	dst, err := triage.Open(s.store.TriageDir(id))
	if err != nil {
		return 0, err
	}
	defer dst.Close()
	return dst.MergeLog(log)
}

// executorFor picks the execution backend a job runs on: nil (in
// process), or the one daemon-wide pool, so children (and their compile
// caches) stay hot across jobs instead of respawning per campaign. A
// record naming a retired backend fails here rather than silently
// running in process.
func (s *Scheduler) executorFor(spec core.JobSpec) (exec.Executor, error) {
	backend := spec.Backend
	if backend == "" {
		backend = s.cfg.Exec.Name
	}
	if err := exec.CheckBackend(backend); err != nil {
		return nil, err
	}
	if backend == "pool" {
		return s.sharedPool()
	}
	return nil, nil
}

// sharedPool lazily builds the daemon-wide pool.
func (s *Scheduler) sharedPool() (*exec.Pool, error) {
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	if s.execPool != nil {
		return s.execPool, nil
	}
	b := s.cfg.Exec
	b.Name = "pool"
	ex, err := b.Open()
	if err != nil {
		return nil, err
	}
	s.execPool = ex.(*exec.Pool)
	return s.execPool, nil
}

// poolStats snapshots the shared pool's counters and live-children
// count for /metrics; zeros when no pooled job has run yet, so the
// execpool series always exist.
func (s *Scheduler) poolStats() (exec.Stats, int) {
	s.poolMu.Lock()
	p := s.execPool
	s.poolMu.Unlock()
	if p == nil {
		return exec.Stats{}, 0
	}
	return p.Stats(), len(p.Pids())
}

// runJob executes one job end to end: mark running (bumping the resume
// count when a checkpoint exists), run the triaged campaign with
// per-task checkpointing, then settle the final state. Cancellation of
// ctx (drain) or the job's own context (DELETE) interrupts the campaign
// between tasks; the final checkpoint is already flushed by the time
// RunCampaign returns.
func (s *Scheduler) runJob(ctx context.Context, j *Job) {
	id := j.ID()
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()

	spec := j.Spec()
	paths := s.store.Paths(id)

	executor, err := s.executorFor(spec)
	if err != nil {
		s.settle(j, RemoteOutcome{Err: err})
		return
	}

	j.mu.Lock()
	j.rec.State = StateRunning
	if j.rec.Started == 0 {
		j.rec.Started = s.cfg.Now().Unix()
	}
	if paths.Resume != "" {
		j.rec.Resumes++
	}
	j.cancel = cancel
	j.cancelAsked = false
	j.hasProgress = false
	rec := j.rec
	j.mu.Unlock()
	if err := s.store.Save(&rec); err != nil {
		s.logf("job %s: persist running state: %v", id, err)
	}
	s.broker.Publish(id, Event{Type: "state", State: StateRunning})
	s.logf("job %s: running (budget %d, %d generated + %d user seeds, resumes %d)",
		id, spec.Budget, spec.SeedCount, len(spec.Seeds), rec.Resumes)

	// Both hooks run on the campaign goroutine in cursor order, so the
	// metric stream and the SSE stream are deterministic per job.
	// Restored executions and generated-seed counts are prior work: the
	// executions counter takes each task's own, and the generated-seed
	// gauge baselines on the first callback (-1 sentinel) so only fresh
	// emissions move it.
	lastGen := -1
	run := Run{
		Spec:        spec,
		Executor:    executor,
		Paths:       paths,
		ExecTimeout: s.cfg.ExecTimeout,
		ParseCache:  s.parse,
		Now:         s.cfg.Now,
		Logf:        func(format string, args ...any) { s.logf("job %s: "+format, append([]any{id}, args...)...) },
		Live:        liveJob{&s.reportMu, j},
		OnProgress: func(p core.Progress) {
			s.m.executions.Add(p.TaskExecutions)
			if lastGen < 0 {
				lastGen = p.GeneratedSeeds
			} else if p.GeneratedSeeds > lastGen {
				s.m.genSeeds.Add(p.GeneratedSeeds - lastGen)
				lastGen = p.GeneratedSeeds
			}
			if p.HasDelta {
				s.m.delta.Observe(p.Delta)
			}
			if p.Fault != nil {
				s.m.faults.Inc(string(p.Fault.Class))
			}
			j.mu.Lock()
			j.progress, j.hasProgress = p, true
			j.mu.Unlock()
		},
		OnFinding: func(f core.Finding) {
			s.m.findings.Inc()
			if f.Oracle == "plan-differential" {
				s.m.planFindings.Inc()
			}
			if f.GeneratorID != "" {
				s.m.genFindings.Inc()
			}
			fs := summarizeFinding(&f)
			s.broker.Publish(id, Event{Type: "finding", Finding: &fs})
		},
	}
	if s.cfg.OnTask != nil {
		run.OnTask = func(done int) { s.cfg.OnTask(id, done) }
	}
	// The run's triage counts reach the record through liveJob.Detach.
	res, _, err := RunCampaign(jctx, run)
	out := RemoteOutcome{Err: err, Interrupted: err == nil && res.Interrupted}
	if err == nil && !res.Interrupted {
		out.Summary = Summarize(res)
		if res.CheckpointErrors > 0 {
			s.logf("job %s: %d checkpoint write(s) failed (last: %s)", id, res.CheckpointErrors, res.LastCheckpointError)
		}
	}
	s.settle(j, out)
}

// liveJob is the scheduler's LiveTriage for one running job, locked by
// the scheduler's reportMu.
type liveJob struct {
	*sync.Mutex
	j *Job
}

func (l liveJob) Attach(store *triage.Store, w *triage.Worker) {
	l.j.mu.Lock()
	l.j.tstore, l.j.tworker = store, w
	l.j.mu.Unlock()
}

// Detach drops the live worker and folds its final counts into the
// record in one critical section, so a scrape sees one or the other and
// the triage totals never dip when the job ends.
func (l liveJob) Detach(stats triage.Stats) {
	l.j.mu.Lock()
	defer l.j.mu.Unlock()
	l.j.tstore, l.j.tworker = nil, nil
	if l.j.rec.Triage == nil {
		l.j.rec.Triage = &TriageStats{}
	}
	l.j.rec.Triage.add(stats)
}

func (s *Scheduler) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
