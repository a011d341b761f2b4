package harness

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"
)

// Config tunes the supervisor. The zero value is the deterministic
// sequential mode: tasks run inline on the calling goroutine with
// panic containment only — no watchdog goroutine, no retries, no
// persistence — so default campaigns reproduce byte-identically.
type Config struct {
	// ExecTimeout is the per-task wall-clock deadline. Zero disables
	// the watchdog (the VM step-fuel budget remains the inner bound);
	// non-zero runs each task on a worker goroutine and cancels it via
	// context when the deadline passes, classifying the task as a
	// timeout fault.
	ExecTimeout time.Duration
	// MaxRetries bounds re-attempts for errors IsTransient classifies
	// as retryable. Faults (panic/hang) are never retried — they are
	// quarantined instead.
	MaxRetries int
	// Backoff is the base delay between transient retries, doubled per
	// attempt. Zero retries immediately.
	Backoff time.Duration
	// BackoffJitter in (0, 1] randomizes each retry delay (equal-jitter:
	// the floor stays at (1-Jitter)·delay). Zero — the default — keeps
	// the historical deterministic schedule, so existing campaigns and
	// their tests are unchanged.
	BackoffJitter float64
	// BackoffSeed seeds the jitter source when BackoffJitter is set;
	// 0 uses a process-global seeded source. Tests pin it for
	// reproducible schedules.
	BackoffSeed int64
	// IsTransient classifies task errors as retryable. Nil means no
	// error is transient.
	IsTransient func(error) bool
	// QuarantineDir persists pathological mutants; "" keeps the
	// quarantine in memory for the run only.
	QuarantineDir string
	// CheckpointPath enables periodic campaign snapshots; "" disables.
	CheckpointPath string
	// CheckpointEvery is the minimum executions between snapshots
	// (<=0 snapshots after every task).
	CheckpointEvery int
	// ResumePath, when set, restores campaign state from a snapshot
	// before the first task.
	ResumePath string
	// OnTask, when set, observes the count of supervised tasks after
	// each one completes (progress reporting; tests use it to trigger
	// deterministic interruptions).
	OnTask func(done int)
	// Sleep is the backoff clock (test seam; nil = time.Sleep).
	Sleep func(time.Duration)
}

// Task is one supervised unit of work — for the campaign, fuzzing one
// seed for one round.
type Task struct {
	ID       string // quarantine key (seed name: a seed that kills the substrate is skipped thereafter)
	SeedName string
	Round    int
	Source   string // program text persisted if the task is quarantined
	Run      func(ctx context.Context) (any, error)
}

// Outcome is the result of one supervised task.
type Outcome struct {
	Value   any    // task return value on success
	Err     error  // ordinary task error (recorded, not fatal)
	Fault   *Fault // classified fault (panic / wall-clock hang)
	Skipped bool   // task was already quarantined and did not run
	Retries int    // transient re-attempts consumed
}

// Supervisor executes tasks with panic containment, a wall-clock
// watchdog, bounded transient retry, and quarantine bookkeeping.
type Supervisor struct {
	Cfg       Config
	Q         *Quarantine
	backoff   *Backoff
	tasksDone int
}

// New builds a supervisor, opening (and loading) the quarantine store.
func New(cfg Config) (*Supervisor, error) {
	q, err := OpenQuarantine(cfg.QuarantineDir)
	if err != nil {
		return nil, err
	}
	b := &Backoff{Base: cfg.Backoff, Jitter: cfg.BackoffJitter}
	if cfg.BackoffJitter > 0 && cfg.BackoffSeed != 0 {
		b.Rand = NewJitterSource(cfg.BackoffSeed)
	}
	return &Supervisor{Cfg: cfg, Q: q, backoff: b}, nil
}

// Do runs one task under supervision. Quarantined tasks are skipped
// (returning the stored fault); contained faults are classified and
// quarantined; transient errors are retried with exponential backoff.
func (s *Supervisor) Do(ctx context.Context, t Task) *Outcome {
	return s.Finish(t, s.Attempt(ctx, t))
}

// Attempt is the order-independent half of Do: it skip-checks the
// quarantine, executes the task with containment / watchdog / transient
// retry, and returns the raw outcome — without writing the quarantine
// or advancing the completion counter. Parallel engines call Attempt
// from worker goroutines and apply Finish in task order; the quarantine
// pre-check here is a safe optimization because the store only grows
// through Finish calls for earlier tasks.
func (s *Supervisor) Attempt(ctx context.Context, t Task) *Outcome {
	if f := s.Q.Get(t.ID); f != nil {
		return &Outcome{Fault: f, Skipped: true}
	}
	var out *Outcome
	for attempt := 0; ; attempt++ {
		out = s.attempt(ctx, t)
		out.Retries = attempt
		if out.Err != nil && out.Fault == nil &&
			s.Cfg.IsTransient != nil && s.Cfg.IsTransient(out.Err) &&
			attempt < s.Cfg.MaxRetries {
			s.sleep(s.backoff.Delay(attempt))
			continue
		}
		break
	}
	return out
}

// Finish applies the order-dependent half of supervision to an outcome
// produced by Attempt: an authoritative quarantine re-check (a task
// attempted speculatively in parallel may have had its seed quarantined
// by an earlier task in the meantime — it is then skipped exactly as a
// sequential run would have skipped it, and the speculative result
// discarded), quarantine persistence for new faults, and completion
// bookkeeping. Must be called in task order, once per Attempt.
func (s *Supervisor) Finish(t Task, out *Outcome) *Outcome {
	defer func() {
		s.tasksDone++
		if s.Cfg.OnTask != nil {
			s.Cfg.OnTask(s.tasksDone)
		}
	}()
	if !out.Skipped {
		if f := s.Q.Get(t.ID); f != nil {
			return &Outcome{Fault: f, Skipped: true}
		}
		if out.Fault != nil {
			out.Fault.Retries = out.Retries
			// Quarantine failures are deliberately non-fatal: losing the
			// artifact must not lose the campaign.
			_ = s.Q.Add(out.Fault)
		}
	}
	return out
}

// Report classifies a failure the task surfaced gracefully (e.g. the
// VM reporting heap exhaustion inside a completed fuzzing round) and
// quarantines its triggering source like any contained fault.
func (s *Supervisor) Report(f *Fault) *Fault {
	_ = s.Q.Add(f)
	return f
}

// attempt executes the task once, containing panics, and — when the
// watchdog is armed — racing it against the wall-clock deadline.
func (s *Supervisor) attempt(ctx context.Context, t Task) *Outcome {
	if s.Cfg.ExecTimeout <= 0 {
		out := &Outcome{}
		out.Value, out.Err = s.contained(ctx, t, out)
		return out
	}
	tctx, cancel := context.WithTimeout(ctx, s.Cfg.ExecTimeout)
	defer cancel()
	type reply struct {
		v     any
		err   error
		fault *Fault
	}
	ch := make(chan reply, 1) // buffered: an abandoned worker must not leak forever
	go func() {
		o := &Outcome{}
		v, err := s.contained(tctx, t, o)
		ch <- reply{v, err, o.Fault}
	}()
	select {
	case r := <-ch:
		return &Outcome{Value: r.v, Err: r.err, Fault: r.fault}
	case <-tctx.Done():
		if ctx.Err() != nil {
			// The campaign is shutting down; not the task's fault.
			return &Outcome{Err: ctx.Err()}
		}
		return &Outcome{Fault: &Fault{
			Class:    FaultTimeout,
			TaskID:   t.ID,
			SeedName: t.SeedName,
			Round:    t.Round,
			Message:  fmt.Sprintf("wall-clock deadline %s exceeded (step fuel did not fire)", s.Cfg.ExecTimeout),
			Source:   t.Source,
		}}
	}
}

// contained invokes the task body with recover() converting any Go
// panic in the substrate into a classified harness fault. Errors that
// carry a pre-classified fault (Faulter — an out-of-process execution
// backend reporting a dead child) get the same first-class treatment:
// the fault is adopted, stamped with the task identity, and the error
// consumed, so process-level containment composes with panic
// containment.
func (s *Supervisor) contained(ctx context.Context, t Task, out *Outcome) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			stack := string(debug.Stack())
			out.Fault = &Fault{
				Class:     FaultHarness,
				TaskID:    t.ID,
				SeedName:  t.SeedName,
				Round:     t.Round,
				Component: ComponentFromStack(stack),
				Message:   fmt.Sprint(r),
				Stack:     stack,
				Source:    t.Source,
			}
			v, err = nil, nil
		}
	}()
	v, err = t.Run(ctx)
	if err != nil {
		if f := AsFault(err); f != nil {
			f.TaskID, f.SeedName, f.Round = t.ID, t.SeedName, t.Round
			if f.Source == "" {
				f.Source = t.Source
			}
			out.Fault = f
			v, err = nil, nil
		}
	}
	return v, err
}

func (s *Supervisor) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if s.Cfg.Sleep != nil {
		s.Cfg.Sleep(d)
		return
	}
	time.Sleep(d)
}
