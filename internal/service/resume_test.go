package service

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/harness"
)

// minijvmPath is the binary built by TestMain for pool-backend tests
// (or supplied via $MINIJVM). Empty means those tests skip.
var minijvmPath string

// TestMain builds cmd/minijvm once. -short skips the build (and with it
// every pool-backend test), keeping unit-test runs fast.
func TestMain(m *testing.M) {
	flag.Parse()
	if !testing.Short() {
		if p := os.Getenv("MINIJVM"); p != "" {
			minijvmPath = p
		} else {
			dir, err := os.MkdirTemp("", "minijvm")
			if err == nil {
				bin := filepath.Join(dir, "minijvm")
				out, err := osexec.Command("go", "build", "-o", bin, "repro/cmd/minijvm").CombinedOutput()
				if err != nil {
					fmt.Fprintf(os.Stderr, "service_test: building minijvm failed, pool-backend tests will skip: %v\n%s", err, out)
				} else {
					minijvmPath = bin
				}
				defer os.RemoveAll(dir)
			}
		}
	}
	os.Exit(m.Run())
}

// resumeSpec needs enough tasks that interrupting after the second
// leaves real work for the resumed daemon.
func resumeSpec(backend string) core.JobSpec {
	return core.JobSpec{SeedCount: 3, Budget: 150, Seed: 7, Backend: backend}
}

// runJobToCompletion runs one job on a fresh daemon over dir and
// returns its terminal view.
func runJobToCompletion(t *testing.T, dir string, spec core.JobSpec) JobView {
	t.Helper()
	s := newTestScheduler(t, Config{Dir: dir, Exec: exec.Backend{Minijvm: minijvmPath}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, s, j.ID(), 5*time.Minute)
	cancel()
	s.Wait()
	if v.State != StateDone {
		t.Fatalf("reference job ended %s (error %q)", v.State, v.Error)
	}
	return v
}

// resultJSON is the byte-identity projection: ResultSummary carries no
// wall-clock state, so interrupted-and-resumed must match uninterrupted
// exactly.
func resultJSON(t *testing.T, v JobView) []byte {
	t.Helper()
	if v.Result == nil {
		t.Fatal("job has no result summary")
	}
	data, err := json.Marshal(v.Result)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// testDaemonRestartResume is the acceptance criterion: drain a daemon
// mid-campaign, start a new one over the same state dir, and the job
// must resume from its checkpoint and finish byte-identical to an
// uninterrupted run. drain triggers the first daemon's shutdown once
// the job has completed two tasks.
func testDaemonRestartResume(t *testing.T, backend string, drain func(stop context.CancelFunc)) {
	spec := resumeSpec(backend)
	want := resultJSON(t, runJobToCompletion(t, t.TempDir(), spec))

	dir := t.TempDir()
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	var once sync.Once
	s := newTestScheduler(t, Config{
		Dir:  dir,
		Exec: exec.Backend{Minijvm: minijvmPath},
		OnTask: func(id string, done int) {
			if done == 2 {
				once.Do(func() { drain(stop) })
				// Block until the drain signal lands so the harness
				// observes it before dispatching the next task — the
				// deterministic-interruption seam.
				select {
				case <-ctx.Done():
				case <-time.After(5 * time.Second):
				}
			}
		},
	})
	s.Start(ctx)
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := j.ID()
	s.Wait() // drain: final checkpoint flushed, triage store closed

	if got := j.State(); got != StateInterrupted {
		t.Fatalf("state after drain = %s, want interrupted", got)
	}
	if !s.Store().HasCheckpoint(id) {
		t.Fatal("no campaign checkpoint on disk after drain")
	}
	rec, err := s.Store().Load(id)
	if err != nil || rec.State != StateInterrupted {
		t.Fatalf("persisted state = %+v (err %v)", rec, err)
	}

	// "Restart the daemon": a new scheduler over the same state dir
	// re-queues the interrupted job and resumes it from the checkpoint.
	s2 := newTestScheduler(t, Config{Dir: dir, Exec: exec.Backend{Minijvm: minijvmPath}})
	j2 := s2.Get(id)
	if j2 == nil {
		t.Fatal("restarted daemon lost the job")
	}
	if got := j2.State(); got != StateQueued {
		t.Fatalf("state after restart = %s, want re-queued", got)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	s2.Start(ctx2)
	v := waitTerminal(t, s2, id, 5*time.Minute)
	cancel2()
	s2.Wait()

	if v.State != StateDone {
		t.Fatalf("resumed job ended %s (error %q)", v.State, v.Error)
	}
	if v.Resumes != 1 {
		t.Errorf("Resumes = %d, want 1", v.Resumes)
	}
	got := resultJSON(t, v)
	if string(got) != string(want) {
		t.Errorf("resumed result differs from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// TestDaemonSIGTERMDrainThenRestartResumes drives the real signal path:
// SIGTERM hits the process, harness.ShutdownContext cancels the drain
// context, the running campaign checkpoints, and a restarted daemon
// resumes it to a byte-identical result.
func TestDaemonSIGTERMDrainThenRestartResumes(t *testing.T) {
	// ShutdownContext must wrap the scheduler context, so build it here
	// and let the drain hook deliver the signal to ourselves.
	spec := resumeSpec("")
	want := resultJSON(t, runJobToCompletion(t, t.TempDir(), spec))

	dir := t.TempDir()
	ctx, stop := harness.ShutdownContext(context.Background())
	defer stop()
	var once sync.Once
	s := newTestScheduler(t, Config{
		Dir: dir,
		OnTask: func(id string, done int) {
			if done == 2 {
				once.Do(func() {
					if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
						t.Errorf("self-SIGTERM: %v", err)
					}
				})
				select {
				case <-ctx.Done():
				case <-time.After(5 * time.Second):
				}
			}
		},
	})
	s.Start(ctx)
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := j.ID()
	s.Wait()
	stop() // release the signal handler before any other test runs

	if ctx.Err() == nil {
		t.Fatal("SIGTERM did not cancel the shutdown context")
	}
	if got := j.State(); got != StateInterrupted {
		t.Fatalf("state after SIGTERM drain = %s, want interrupted", got)
	}
	if !s.Store().HasCheckpoint(id) {
		t.Fatal("no final checkpoint landed on SIGTERM")
	}

	s2 := newTestScheduler(t, Config{Dir: dir})
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	s2.Start(ctx2)
	v := waitTerminal(t, s2, id, 5*time.Minute)
	cancel2()
	s2.Wait()
	if v.State != StateDone || v.Resumes != 1 {
		t.Fatalf("resumed job: state %s resumes %d (error %q)", v.State, v.Resumes, v.Error)
	}
	if got := resultJSON(t, v); string(got) != string(want) {
		t.Errorf("post-SIGTERM resume differs from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

func TestDaemonRestartResumesInProcess(t *testing.T) {
	testDaemonRestartResume(t, "", func(stop context.CancelFunc) { stop() })
}

// TestDaemonRestartResumesSubprocess runs the restart-resume criterion
// with the campaign's executions in minijvm child processes (the
// daemon's shared pool).
func TestDaemonRestartResumesSubprocess(t *testing.T) {
	if minijvmPath == "" {
		t.Skip("minijvm binary unavailable (-short or build failure)")
	}
	testDaemonRestartResume(t, "pool", func(stop context.CancelFunc) { stop() })
}
