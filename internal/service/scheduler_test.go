package service

import (
	"context"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// newTestScheduler builds a scheduler over a temp state dir. The
// returned config copy carries the dir for reopening (restart tests).
func newTestScheduler(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitJob polls until the job satisfies pred or the deadline passes.
func waitJob(t *testing.T, s *Scheduler, id string, timeout time.Duration, pred func(JobView) bool) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		j := s.Get(id)
		if j == nil {
			t.Fatalf("job %s disappeared", id)
		}
		v := j.View()
		if pred(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s after %v", id, v.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func waitTerminal(t *testing.T, s *Scheduler, id string, timeout time.Duration) JobView {
	t.Helper()
	return waitJob(t, s, id, timeout, func(v JobView) bool { return v.State.Terminal() })
}

// smallSpec is a fast job: 2 generated seeds, tiny budget.
func smallSpec() core.JobSpec { return core.JobSpec{SeedCount: 2, Budget: 60, Seed: 3} }

func TestSchedulerRunsJobToDone(t *testing.T) {
	s := newTestScheduler(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	j, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() != "job-0001" {
		t.Errorf("first job ID = %s", j.ID())
	}
	v := waitTerminal(t, s, j.ID(), 3*time.Minute)
	if v.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", v.State, v.Error)
	}
	if v.Result == nil || v.Result.Executions < 60 {
		t.Fatalf("Result = %+v, want budget reached", v.Result)
	}
	if v.Triage == nil {
		t.Error("no triage stats recorded")
	}
	if v.Started == 0 || v.Finished == 0 {
		t.Errorf("timestamps not set: started %d finished %d", v.Started, v.Finished)
	}
	// The persisted record matches the live view.
	rec, err := s.Store().Load(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateDone || rec.Result == nil || rec.Result.Executions != v.Result.Executions {
		t.Errorf("persisted record = %+v", rec)
	}
	if got, _ := strconv.Atoi(metricValue(render(s.Metrics()), "mopfuzzd_executions_total")); got < 60 {
		t.Errorf("metrics executions = %d, want >= 60", got)
	}
	// The findings report is servable after the run (store re-opened).
	if _, err := s.Report(j.ID()); err != nil {
		t.Errorf("Report: %v", err)
	}
}

func TestSchedulerCancelQueued(t *testing.T) {
	s := newTestScheduler(t, Config{})
	// Not started: the job stays queued.
	j, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	if got := j.State(); got != StateCancelled {
		t.Fatalf("state = %s, want cancelled", got)
	}
	if _, err := s.Cancel(j.ID()); err == nil || !strings.Contains(err.Error(), "finished") {
		t.Errorf("second cancel err = %v, want ErrTerminal", err)
	}
	rec, err := s.Store().Load(j.ID())
	if err != nil || rec.State != StateCancelled {
		t.Errorf("persisted state = %v (err %v)", rec, err)
	}
}

func TestSchedulerCancelRunning(t *testing.T) {
	var (
		s    *Scheduler
		once sync.Once
	)
	s = newTestScheduler(t, Config{
		OnTask: func(id string, done int) {
			if done == 1 {
				once.Do(func() {
					if _, err := s.Cancel(id); err != nil {
						t.Errorf("cancel running: %v", err)
					}
				})
			}
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	spec := core.JobSpec{SeedCount: 3, Budget: 150, Seed: 7}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, s, j.ID(), 3*time.Minute)
	if v.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", v.State)
	}
	// The interrupted campaign flushed its checkpoint before settling.
	if !s.Store().HasCheckpoint(j.ID()) {
		t.Error("no checkpoint flushed by the cancelled campaign")
	}
}

func TestSchedulerAddSeeds(t *testing.T) {
	s := newTestScheduler(t, Config{})
	j, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	id := j.ID()

	if _, err := s.AddSeeds(id, []core.SeedSpec{{Source: "class U { static void main() { print(7); } }"}}); err != nil {
		t.Fatal(err)
	}
	spec := j.Spec()
	if len(spec.Seeds) != 1 || spec.Seeds[0].Name != "User0001" {
		t.Fatalf("seeds after add = %+v", spec.Seeds)
	}
	// Malformed source is rejected and nothing is appended.
	if _, err := s.AddSeeds(id, []core.SeedSpec{{Source: "class {"}}); err == nil {
		t.Error("malformed seed accepted")
	}
	if got := len(j.Spec().Seeds); got != 1 {
		t.Errorf("seed count after rejected add = %d", got)
	}
	// The append was persisted.
	rec, err := s.Store().Load(id)
	if err != nil || len(rec.Spec.Seeds) != 1 {
		t.Errorf("persisted seeds = %+v (err %v)", rec, err)
	}

	// A job with checkpointed state awaiting resume refuses new seeds:
	// the pool is part of the deterministic resume input.
	if err := os.WriteFile(s.Store().CheckpointPath(id), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddSeeds(id, []core.SeedSpec{{Source: "class V { static void main() { print(8); } }"}}); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Errorf("add-seeds with checkpoint err = %v, want rejection", err)
	}

	if _, err := s.AddSeeds("job-9999", nil); err == nil {
		t.Error("unknown job accepted seeds")
	}
}

func TestSchedulerDrainingRejectsSubmit(t *testing.T) {
	s := newTestScheduler(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	cancel()
	s.Wait()
	if !s.Draining() {
		t.Error("Draining() = false after shutdown")
	}
	if _, err := s.Submit(smallSpec()); err != ErrDraining {
		t.Errorf("Submit while draining err = %v, want ErrDraining", err)
	}
}

func TestSchedulerRunnersBound(t *testing.T) {
	// With one runner, two queued jobs never run concurrently: the
	// second starts only after the first is terminal.
	s := newTestScheduler(t, Config{Runners: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	a, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	va := waitTerminal(t, s, a.ID(), 3*time.Minute)
	vb := waitTerminal(t, s, b.ID(), 3*time.Minute)
	if va.State != StateDone || vb.State != StateDone {
		t.Fatalf("states = %s, %s", va.State, vb.State)
	}
	if vb.Started < va.Finished {
		t.Errorf("second job started at %d before first finished at %d with 1 runner", vb.Started, va.Finished)
	}
}

func TestSchedulerGeneratorJob(t *testing.T) {
	s := newTestScheduler(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	spec := smallSpec()
	spec.Generators = []string{"randprog", "template"}
	spec.Styles = []string{"boxing-loop"}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, s, j.ID(), 3*time.Minute)
	if v.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", v.State, v.Error)
	}
	var sb strings.Builder
	s.RenderMetrics(&sb)
	out := sb.String()
	wantLine(t, out, "mopfuzzd_generate_jobs_total 1")
	if strings.Contains(out, "mopfuzzd_generate_seeds_total 0\n") {
		t.Errorf("generated-seed metric stayed at zero\n---\n%s", out)
	}

	// A baseline-only job leaves the generate counters untouched.
	j2, err := s.Submit(core.JobSpec{SeedCount: 2, Budget: 20, Seed: 5, Generators: []string{"randprog"}})
	if err != nil {
		t.Fatal(err)
	}
	if waitTerminal(t, s, j2.ID(), 3*time.Minute).State != StateDone {
		t.Fatal("baseline-only generator job did not finish")
	}
	sb.Reset()
	s.RenderMetrics(&sb)
	wantLine(t, sb.String(), "mopfuzzd_generate_jobs_total 1")
}

// TestTriageTotalsNeverDip scrapes /metrics in a loop while a job runs
// to the end. When the job ends, its triage worker's final counts move
// into the job record in the same step that drops the live worker, so
// a scrape always sees one or the other and mopfuzzd_triage_findings_total
// never goes backwards.
func TestTriageTotalsNeverDip(t *testing.T) {
	s := newTestScheduler(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); s.Wait() }()
	s.Start(ctx)
	j, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	last, scrapes := int64(0), 0
	for done := false; !done; scrapes++ {
		done = j.State().Terminal()
		n, err := strconv.ParseInt(metricValue(render(s.Metrics()), "mopfuzzd_triage_findings_total"), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if n < last {
			t.Fatalf("scrape %d: mopfuzzd_triage_findings_total went from %d to %d", scrapes, last, n)
		}
		last = n
	}
	if v := j.View(); v.State != StateDone || v.Triage == nil || int64(v.Triage.Received) != last || last == 0 {
		t.Fatalf("job %s, triage %+v; last scrape %d findings", v.State, v.Triage, last)
	}
}
