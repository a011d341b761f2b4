package service

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/triage"
)

// JobState is the lifecycle of a submitted job.
type JobState string

// Job states. Queued and running are live; interrupted means a daemon
// drain checkpointed the campaign mid-flight (a restart re-queues it
// with resume); quarantined means a restart found the job's persisted
// run state (its campaign checkpoint) corrupt and set the job aside
// rather than failing daemon startup; the rest are terminal.
const (
	StateQueued      JobState = "queued"
	StateRunning     JobState = "running"
	StateInterrupted JobState = "interrupted"
	StateDone        JobState = "done"
	StateFailed      JobState = "failed"
	StateCancelled   JobState = "cancelled"
	StateQuarantined JobState = "quarantined"
)

// States lists every job state in a fixed order, so the /metrics gauge
// emits a series per state even at zero.
func States() []JobState {
	return []JobState{StateQueued, StateRunning, StateInterrupted, StateDone, StateFailed, StateCancelled, StateQuarantined}
}

// Terminal reports whether the state is final (no further transitions).
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled || s == StateQuarantined
}

// TemplateExtras gathers the triage store's minimized reproducers for
// template mining — the found-bugs-breed-scenarios feed. Nil when the
// spec's generators are off. Both execution sites (the local runner and
// the fleet worker) call this against the job's own store; on resume
// the checkpoint's pinned extras take precedence in core, so handoffs
// stay byte-identical regardless of what either store holds now.
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

// FindingSummary is one campaign finding in a job result — the
// provenance fields without the full reproducer (the triage store keeps
// those).
type FindingSummary struct {
	BugID       string `json:"bug_id"`
	Component   string `json:"component"`
	Kind        string `json:"kind,omitempty"`
	Oracle      string `json:"oracle"`
	SeedName    string `json:"seed_name"`
	Target      string `json:"target"`
	AtExecution int    `json:"at_execution"`
	Cursor      int    `json:"cursor"`
	Round       int    `json:"round"`
	ChainLen    int    `json:"chain_len"`
	PlanID      string `json:"plan_id,omitempty"`
	GeneratorID string `json:"generator_id,omitempty"`
}

// ResultSummary is the deterministic digest of a finished campaign: it
// contains no wall-clock state, so an interrupted-and-resumed job must
// produce byte-identical JSON to an uninterrupted one (test-pinned).
type ResultSummary struct {
	Executions         int              `json:"executions"`
	SeedsFuzzed        int              `json:"seeds_fuzzed"`
	UniqueBugs         int              `json:"unique_bugs"`
	Findings           []FindingSummary `json:"findings"`
	FaultsByClass      map[string]int   `json:"faults_by_class,omitempty"`
	SeedErrors         int              `json:"seed_errors,omitempty"`
	SkippedQuarantined int              `json:"skipped_quarantined,omitempty"`
	MedianDelta        float64          `json:"median_delta"`
	// PlanFindings counts findings from the plan-vs-plan oracle (0 and
	// omitted when plan fuzzing was off).
	PlanFindings int `json:"plan_findings,omitempty"`
}

// Summarize digests a campaign result for the job record.
func Summarize(res *core.CampaignResult) *ResultSummary {
	sum := &ResultSummary{
		Executions:         res.Executions,
		SeedsFuzzed:        res.SeedsFuzzed,
		UniqueBugs:         len(res.Findings),
		Findings:           []FindingSummary{},
		SeedErrors:         len(res.SeedErrors),
		SkippedQuarantined: res.SkippedQuarantined,
		MedianDelta:        res.MedianDelta(),
		PlanFindings:       res.PlanFindings(),
	}
	for i := range res.Findings {
		sum.Findings = append(sum.Findings, summarizeFinding(&res.Findings[i]))
	}
	if len(res.Faults) > 0 {
		sum.FaultsByClass = map[string]int{}
		for _, f := range res.Faults {
			sum.FaultsByClass[string(f.Class)]++
		}
	}
	return sum
}

func summarizeFinding(f *core.Finding) FindingSummary {
	fs := FindingSummary{
		Oracle:      f.Oracle,
		SeedName:    f.SeedName,
		Target:      f.Target.Name(),
		AtExecution: f.AtExecution,
		Cursor:      f.Cursor,
		Round:       f.Round,
		ChainLen:    f.ChainLen,
		PlanID:      f.PlanID,
		GeneratorID: f.GeneratorID,
	}
	if f.Bug != nil {
		fs.BugID, fs.Component, fs.Kind = f.Bug.ID, f.Bug.Component, f.Bug.Kind.String()
	}
	return fs
}

// TriageStats is the persisted slice of triage.Stats, accumulated
// across a job's run segments (each resume adds its segment's counts).
type TriageStats struct {
	Received    int `json:"received"`
	Novel       int `json:"novel"`
	Duplicates  int `json:"duplicates"`
	Reduced     int `json:"reduced"`
	Quarantined int `json:"quarantined"`
	Errors      int `json:"errors,omitempty"`
}

func (t *TriageStats) add(s triage.Stats) {
	t.Received += s.Received
	t.Novel += s.Novel
	t.Duplicates += s.Duplicates
	t.Reduced += s.Reduced
	t.Quarantined += s.Quarantined
	t.Errors += s.Errors
}

// jobVersion guards the persisted job record schema; a record with
// another version is rejected rather than silently misread, mirroring
// the harness checkpoint and triage store versioning.
const jobVersion = 1

// jobRecord is the on-disk (and wire) form of a job: everything needed
// to re-queue, resume, and report it across daemon restarts.
type jobRecord struct {
	Version int          `json:"version"`
	ID      string       `json:"id"`
	Spec    core.JobSpec `json:"spec"`
	State   JobState     `json:"state"`
	// Created/Started/Finished are Unix timestamps; Started is the first
	// run segment's start, preserved across resumes.
	Created  int64 `json:"created,omitempty"`
	Started  int64 `json:"started,omitempty"`
	Finished int64 `json:"finished,omitempty"`
	// Resumes counts run segments that restored a checkpoint.
	Resumes int            `json:"resumes,omitempty"`
	Error   string         `json:"error,omitempty"`
	Result  *ResultSummary `json:"result,omitempty"`
	Triage  *TriageStats   `json:"triage,omitempty"`
	// Worker names the fleet worker the job last ran on ("" = this
	// daemon's local runner pool).
	Worker string `json:"worker,omitempty"`
	// Requeues counts assignments that were lost and re-queued (lease
	// expiry, worker death) — the fleet's recovery counter per job.
	Requeues int `json:"requeues,omitempty"`
}

// ProgressView is the live slice of a running job exposed by the API.
type ProgressView struct {
	Cursor             int `json:"cursor"`
	Executions         int `json:"executions"`
	Budget             int `json:"budget"`
	SeedsFuzzed        int `json:"seeds_fuzzed"`
	Findings           int `json:"findings"`
	PlanFindings       int `json:"plan_findings,omitempty"`
	Faults             int `json:"faults"`
	SeedErrors         int `json:"seed_errors,omitempty"`
	SkippedQuarantined int `json:"skipped_quarantined,omitempty"`
	// ScheduleArms/ScheduleEnergy mirror the power schedule's live
	// state (0 and omitted for cursor-order jobs).
	ScheduleArms   int     `json:"schedule_arms,omitempty"`
	ScheduleEnergy float64 `json:"schedule_energy,omitempty"`
	// GeneratedSeeds counts generator emissions into the pool so far (0
	// and omitted for generator-free jobs).
	GeneratedSeeds int `json:"generated_seeds,omitempty"`
}

// JobView is the API rendering of a job: the persisted record plus, for
// running jobs, the latest progress snapshot.
type JobView struct {
	ID       string         `json:"id"`
	Spec     core.JobSpec   `json:"spec"`
	State    JobState       `json:"state"`
	Created  int64          `json:"created,omitempty"`
	Started  int64          `json:"started,omitempty"`
	Finished int64          `json:"finished,omitempty"`
	Resumes  int            `json:"resumes,omitempty"`
	Error    string         `json:"error,omitempty"`
	Result   *ResultSummary `json:"result,omitempty"`
	Triage   *TriageStats   `json:"triage,omitempty"`
	Worker   string         `json:"worker,omitempty"`
	Requeues int            `json:"requeues,omitempty"`
	Progress *ProgressView  `json:"progress,omitempty"`
}

// Job is one scheduled campaign with its runtime state. All access goes
// through the mutex: the scheduler's runner goroutine, the HTTP
// handlers, and the campaign's progress callback all touch it.
type Job struct {
	mu  sync.Mutex
	rec jobRecord
	dir string

	// Runtime, valid only while running.
	cancel      context.CancelFunc
	cancelAsked bool
	hasProgress bool
	progress    core.Progress
	tstore      *triage.Store
	tworker     *triage.Worker
}

// ID returns the job's identifier.
func (j *Job) ID() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.ID
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.State
}

// Spec returns a copy of the job's (normalized) submission.
func (j *Job) Spec() core.JobSpec {
	j.mu.Lock()
	defer j.mu.Unlock()
	return copySpec(j.rec.Spec)
}

// View renders the job for the API.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:       j.rec.ID,
		Spec:     copySpec(j.rec.Spec),
		State:    j.rec.State,
		Created:  j.rec.Created,
		Started:  j.rec.Started,
		Finished: j.rec.Finished,
		Resumes:  j.rec.Resumes,
		Error:    j.rec.Error,
		Result:   j.rec.Result,
		Triage:   j.rec.Triage,
		Worker:   j.rec.Worker,
		Requeues: j.rec.Requeues,
	}
	if j.rec.State == StateRunning && j.hasProgress {
		v.Progress = &ProgressView{
			Cursor:             j.progress.Cursor,
			Executions:         j.progress.Executions,
			Budget:             j.rec.Spec.Budget,
			SeedsFuzzed:        j.progress.SeedsFuzzed,
			Findings:           j.progress.Findings,
			PlanFindings:       j.progress.PlanFindings,
			Faults:             j.progress.Faults,
			SeedErrors:         j.progress.SeedErrors,
			SkippedQuarantined: j.progress.SkippedQuarantined,
			ScheduleArms:       j.progress.ScheduleArms,
			ScheduleEnergy:     j.progress.ScheduleEnergy,
			GeneratedSeeds:     j.progress.GeneratedSeeds,
		}
	}
	return v
}

func copySpec(s core.JobSpec) core.JobSpec {
	cp := s
	cp.Targets = append([]string(nil), s.Targets...)
	cp.Seeds = append([]core.SeedSpec(nil), s.Seeds...)
	cp.Generators = append([]string(nil), s.Generators...)
	cp.Styles = append([]string(nil), s.Styles...)
	return cp
}
