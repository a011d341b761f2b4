package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// drainInterrupted runs spec until two tasks complete, drains, and
// returns the interrupted job's ID (checkpoint on disk). The scheduler
// is fully stopped on return.
func drainInterrupted(t *testing.T, dir string, spec core.JobSpec) string {
	t.Helper()
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	var once sync.Once
	s := newTestScheduler(t, Config{
		Dir: dir,
		OnTask: func(id string, done int) {
			if done == 2 {
				once.Do(stop)
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
	if got := j.State(); got != StateInterrupted {
		t.Fatalf("state after drain = %s, want interrupted", got)
	}
	if !s.Store().HasCheckpoint(id) {
		t.Fatal("no campaign checkpoint on disk after drain")
	}
	return id
}

// TestRestartQuarantinesCorruptCheckpoint pins the corrupt-state
// startup policy: a restart that finds a job's campaign checkpoint
// undecodable must quarantine that job (snapshot preserved as
// checkpoint.json.corrupt, counted in /metrics) and keep starting —
// one bad snapshot cannot take down the daemon or the other jobs.
func TestRestartQuarantinesCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	id := drainInterrupted(t, dir, resumeSpec(""))

	// Corrupt the checkpoint: a torn write from a crashed daemon.
	store, err := OpenJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.CheckpointPath(id), []byte(`{"version":`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestScheduler(t, Config{Dir: dir})
	j := s2.Get(id)
	if j == nil {
		t.Fatal("restarted daemon lost the job")
	}
	if got := j.State(); got != StateQuarantined {
		t.Fatalf("state after restart = %s, want quarantined", got)
	}
	if _, err := os.Stat(store.CheckpointPath(id) + ".corrupt"); err != nil {
		t.Errorf("corrupt snapshot not preserved: %v", err)
	}
	if store.HasCheckpoint(id) {
		t.Error("corrupt checkpoint still in place")
	}
	if v := j.View(); !strings.Contains(v.Error, "corrupt campaign checkpoint") {
		t.Errorf("quarantine reason not recorded: %q", v.Error)
	}

	// The daemon is healthy: new jobs still run to completion, and the
	// quarantine is visible in metrics.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s2.Start(ctx)
	j2, err := s2.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v := waitTerminal(t, s2, j2.ID(), 3*time.Minute); v.State != StateDone {
		t.Fatalf("post-quarantine job ended %s (error %q)", v.State, v.Error)
	}
	var buf strings.Builder
	s2.RenderMetrics(&buf)
	if !strings.Contains(buf.String(), "mopfuzzd_jobs_quarantined_total 1") {
		t.Errorf("quarantine not counted in metrics:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `mopfuzzd_jobs{state="quarantined"} 1`) {
		t.Errorf("quarantined gauge missing:\n%s", buf.String())
	}
}

// TestRestartQuarantinesCorruptJobRecord pins the same policy one
// level up: a job.json that no longer parses moves the whole job dir
// to jobs-quarantined/ and startup continues with every healthy job.
func TestRestartQuarantinesCorruptJobRecord(t *testing.T) {
	dir := t.TempDir()
	s := newTestScheduler(t, Config{Dir: dir})
	j1, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Never started: both stay queued on disk. Corrupt the first.
	recPath := filepath.Join(s.Store().JobDir(j1.ID()), "job.json")
	if err := os.WriteFile(recPath, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestScheduler(t, Config{Dir: dir})
	if s2.Get(j1.ID()) != nil {
		t.Error("corrupt job still loaded")
	}
	if s2.Get(j2.ID()) == nil {
		t.Fatal("healthy job lost alongside the corrupt one")
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs-quarantined", j1.ID(), "job.json")); err != nil {
		t.Errorf("corrupt record not preserved for forensics: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s2.Start(ctx)
	if v := waitTerminal(t, s2, j2.ID(), 3*time.Minute); v.State != StateDone {
		t.Fatalf("healthy job ended %s (error %q)", v.State, v.Error)
	}
	var buf strings.Builder
	s2.RenderMetrics(&buf)
	if !strings.Contains(buf.String(), "mopfuzzd_jobs_quarantined_total 1") {
		t.Errorf("quarantine not counted in metrics:\n%s", buf.String())
	}
}

// TestRestartSurvivesStrayCheckpointTmp pins the torn-write story for
// the atomic checkpoint protocol: a daemon killed mid-checkpoint-write
// leaves checkpoint.json.tmp garbage next to the intact previous
// snapshot, and the restart must resume from the snapshot untouched by
// the stray temp file — byte-identical to an uninterrupted run.
func TestRestartSurvivesStrayCheckpointTmp(t *testing.T) {
	spec := resumeSpec("")
	want := resultJSON(t, runJobToCompletion(t, t.TempDir(), spec))

	dir := t.TempDir()
	id := drainInterrupted(t, dir, spec)
	store, err := OpenJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The kill-mid-write artifact: a partial temp file. The rename never
	// happened, so checkpoint.json still holds the previous snapshot.
	tmp := store.CheckpointPath(id) + ".tmp"
	if err := os.WriteFile(tmp, []byte(`{"version":2,"cur`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestScheduler(t, Config{Dir: dir})
	if got := s2.Get(id).State(); got != StateQueued {
		t.Fatalf("state after restart = %s, want re-queued", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s2.Start(ctx)
	v := waitTerminal(t, s2, id, 5*time.Minute)
	if v.State != StateDone {
		t.Fatalf("resumed job ended %s (error %q)", v.State, v.Error)
	}
	if got := resultJSON(t, v); string(got) != string(want) {
		t.Errorf("resume with stray tmp differs:\n got %s\nwant %s", got, want)
	}
}

// TestHTTPDeleteOfJobMidTask pins the cancel path for a runner that is
// mid-campaign: DELETE must cancel the job between tasks, flush a
// final checkpoint, and settle the record as cancelled.
func TestHTTPDeleteOfJobMidTask(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reached := make(chan string, 1) // job ID once task 2 completes
	release := make(chan struct{})
	var once sync.Once
	s := newTestScheduler(t, Config{
		Dir: dir,
		OnTask: func(id string, done int) {
			if done == 2 {
				once.Do(func() {
					reached <- id
					// Hold the campaign between tasks until the DELETE has
					// landed, so the cancellation is observed mid-run
					// deterministically.
					select {
					case <-release:
					case <-time.After(10 * time.Second):
					}
				})
			}
		},
	})
	s.Start(ctx)
	srv := httptest.NewServer(NewServer(s).Handler())
	defer srv.Close()

	j, err := s.Submit(resumeSpec(""))
	if err != nil {
		t.Fatal(err)
	}
	id := j.ID()
	select {
	case got := <-reached:
		if got != id {
			t.Fatalf("unexpected job in OnTask: %s", got)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("campaign never reached task 2")
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE mid-task: status %d, want 200", resp.StatusCode)
	}
	close(release)

	v := waitTerminal(t, s, id, 2*time.Minute)
	if v.State != StateCancelled {
		t.Fatalf("state after DELETE = %s, want cancelled", v.State)
	}
	if !s.Store().HasCheckpoint(id) {
		t.Error("no final checkpoint after mid-task cancel")
	}
	// Cancelled is terminal: a second DELETE conflicts.
	req2, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+id, nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("second DELETE: status %d, want 409", resp2.StatusCode)
	}
}

// TestOversizedBodyRejected pins the request-body cap: a job
// submission (or seed upload) larger than the cap gets 413, not
// unbounded buffering.
func TestOversizedBodyRejected(t *testing.T) {
	s := newTestScheduler(t, Config{})
	srv := httptest.NewServer(NewServer(s).Handler())
	defer srv.Close()

	big := strings.NewReader(`{"name":"` + strings.Repeat("x", 9<<20) + `"}`)
	resp, err := http.Post(srv.URL+"/jobs", "application/json", big)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: status %d, want 413", resp.StatusCode)
	}
}
