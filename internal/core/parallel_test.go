package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buginject"
	"repro/internal/corpus"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/jvm"
	"repro/internal/lang"
)

// runForCheckpoint runs a campaign to completion with checkpointing on
// and returns the result plus the final checkpoint log — the strongest
// equality witness we have, since the log holds the task-stream config
// and what every merged task changed: executions, deltas, faults, seed
// errors, new findings and schedule yields.
func runForCheckpoint(t *testing.T, ccfg CampaignConfig, workers int) (*CampaignResult, []byte) {
	t.Helper()
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt.json")
	ccfg.Workers = workers
	res, err := RunCampaignContext(context.Background(), ccfg, harness.Config{CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("no final checkpoint: %v", err)
	}
	return res, data
}

// normalizeCheckpoint blanks the Go stack text inside contained-panic
// faults before comparing logs: a panic contained on a worker goroutine
// unavoidably records a different goroutine id and engine call path
// than one contained inline, while every semantic fault field (class,
// task, seed, round, message, component, source) is asserted identical
// separately.
func normalizeCheckpoint(t *testing.T, data []byte) string {
	t.Helper()
	ck, err := harness.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, raw := range ck.Records {
		var rec map[string]any
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		if f, ok := rec["fault"].(map[string]any); ok {
			delete(f, "stack")
		}
		if ck.Records[i], err = json.Marshal(rec); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "normalized.json")
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// foldLog resumes ccfg from a checkpoint log without running a task and
// returns the prepared campaign: the state the log's records fold into.
func foldLog(t *testing.T, ccfg CampaignConfig, data []byte) *campaign {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fold.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := newCampaign(context.Background(), ccfg, harness.Config{ResumePath: path})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// headerOf decodes the campaign header of a checkpoint log.
func headerOf(t *testing.T, data []byte) logHeader {
	t.Helper()
	ck, err := harness.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	var h logHeader
	if err := json.Unmarshal(ck.Header, &h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestParallelCampaignMatchesSequential is the tentpole acceptance
// criterion: sharding seed-tasks across 8 workers must reproduce the
// sequential campaign byte-identically — findings, deltas, faults,
// weights, and checkpoint state.
func TestParallelCampaignMatchesSequential(t *testing.T) {
	ccfg := CampaignConfig{
		Seeds:   corpus.DefaultPool(4, 21),
		Budget:  200,
		Targets: []jvm.Spec{{Impl: buginject.HotSpot, Version: 17}, {Impl: buginject.OpenJ9, Version: 17}},
		Fuzz:    testCampaignCfg(21),
		Seed:    21,
	}
	seq, seqCkpt := runForCheckpoint(t, ccfg, 1)
	par, parCkpt := runForCheckpoint(t, ccfg, 8)
	assertCampaignsEqual(t, seq, par)
	if s, p := normalizeCheckpoint(t, seqCkpt), normalizeCheckpoint(t, parCkpt); s != p {
		t.Errorf("final checkpoint diverged under parallelism:\nsequential: %s\nparallel:   %s", s, p)
	}
}

// TestParallelCampaignMatchesSequentialWithFaults exercises the
// order-dependent merge paths: a seed whose compilation panics the
// substrate gets quarantined mid-campaign, later speculative attempts
// of it must be skipped exactly as a sequential run skips them, and a
// seed the fuzzer rejects must land in SeedErrors at the same rounds.
func TestParallelCampaignMatchesSequentialWithFaults(t *testing.T) {
	fcfg := testCampaignCfg(22)
	fcfg.CompileHook = panicOnClass{class: "Boom"}
	pool := append(corpus.DefaultPool(3, 22), boomSeed, emptySeed)
	ccfg := CampaignConfig{
		Seeds:   pool,
		Budget:  200,
		Targets: []jvm.Spec{{Impl: buginject.HotSpot, Version: 17}},
		Fuzz:    fcfg,
		Seed:    22,
	}
	seq, seqCkpt := runForCheckpoint(t, ccfg, 1)
	par, parCkpt := runForCheckpoint(t, ccfg, 8)
	assertCampaignsEqual(t, seq, par)
	if len(par.Faults) != len(seq.Faults) {
		t.Fatalf("Faults len = %d, want %d", len(par.Faults), len(seq.Faults))
	}
	for i := range seq.Faults {
		w, g := seq.Faults[i], par.Faults[i]
		if g.Class != w.Class || g.TaskID != w.TaskID || g.SeedName != w.SeedName || g.Round != w.Round ||
			g.Message != w.Message || g.Component != w.Component || g.Source != w.Source {
			t.Errorf("Faults[%d] = {%s %s %s r%d %q}, want {%s %s %s r%d %q}",
				i, g.Class, g.TaskID, g.SeedName, g.Round, g.Message, w.Class, w.TaskID, w.SeedName, w.Round, w.Message)
		}
	}
	if par.SkippedQuarantined != seq.SkippedQuarantined {
		t.Errorf("SkippedQuarantined = %d, want %d", par.SkippedQuarantined, seq.SkippedQuarantined)
	}
	if len(par.SeedErrors) != len(seq.SeedErrors) {
		t.Fatalf("SeedErrors len = %d, want %d", len(par.SeedErrors), len(seq.SeedErrors))
	}
	if seq.SkippedQuarantined == 0 {
		t.Error("test is vacuous: no quarantine skips occurred")
	}
	if s, p := normalizeCheckpoint(t, seqCkpt), normalizeCheckpoint(t, parCkpt); s != p {
		t.Errorf("final checkpoint diverged under parallelism:\nsequential: %s\nparallel:   %s", s, p)
	}
}

// TestParallelCheckpointResumeEquivalence: interrupt a parallel
// campaign mid-flight, resume it in parallel, and require the exact
// result of an uninterrupted sequential run. Checkpoints only ever
// describe a merged prefix of the task stream, so speculative work in
// flight at the interrupt is invisible to the snapshot.
func TestParallelCheckpointResumeEquivalence(t *testing.T) {
	ccfg := CampaignConfig{
		Seeds:   corpus.DefaultPool(3, 23),
		Budget:  150,
		Targets: []jvm.Spec{{Impl: buginject.HotSpot, Version: 17}},
		Fuzz:    testCampaignCfg(23),
		Seed:    23,
	}
	uninterrupted := RunCampaign(ccfg)

	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ccfg.Workers = 8
	partial, err := RunCampaignContext(ctx, ccfg, harness.Config{
		CheckpointPath: ckpt,
		OnTask: func(done int) {
			if done == 2 {
				cancel() // simulate SIGINT after the second merged task
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Interrupted {
		t.Fatal("cancellation did not mark the result interrupted")
	}
	if partial.Executions >= uninterrupted.Executions {
		t.Fatalf("partial run executed %d >= %d: nothing left to resume", partial.Executions, uninterrupted.Executions)
	}

	resumed, err := RunCampaignContext(context.Background(), ccfg, harness.Config{
		CheckpointPath: ckpt,
		ResumePath:     ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Resumed {
		t.Error("resumed run not marked Resumed")
	}
	assertCampaignsEqual(t, uninterrupted, resumed)
}

// TestParallelStopDropsQueuedTasks: once a campaign stops, the engine
// finishes only the tasks already running, not the rest of its window.
// Task 0 runs at once and every later task blocks on a gate, so after
// one merge the two workers hold cursors 1 and 2 while cursors 3 and 4
// wait in the queue; stop must drop those two.
func TestParallelStopDropsQueuedTasks(t *testing.T) {
	const workers = 2
	sup, err := harness.New(harness.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var ran atomic.Int32
	mk := func(c int) harness.Task {
		return harness.Task{ID: fmt.Sprint(c), Run: func(context.Context) (any, error) {
			ran.Add(1)
			if c > 0 {
				<-gate
			}
			return nil, nil
		}}
	}
	e := newParEngine(context.Background(), sup, workers, 0, 0, mk)
	e.do(0)
	const merged = 1
	for deadline := time.Now().Add(10 * time.Second); ran.Load() < merged+workers; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("workers started %d tasks, want %d", ran.Load(), merged+workers)
		}
	}
	// Open the gate once stop has emptied the queue, or after a second.
	go func() {
		for deadline := time.Now().Add(time.Second); len(e.taskCh) > 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		close(gate)
	}()
	e.stop()
	if got := int(ran.Load()); got != merged+workers {
		t.Errorf("%d tasks ran: %d merged, %d in flight at the stop, and %d of the queue (window %d)",
			got, merged, workers, got-merged-workers, e.window)
	}
}

// stopProbe runs executions in process and counts those that start once
// the campaign has merged its budget. Each of the first limit of them is
// held until its context ends, or for ten seconds, so the running tasks
// stay running until the engine stops.
type stopProbe struct {
	stopped atomic.Bool
	after   atomic.Int32
	limit   int32
}

func (p *stopProbe) gate(ctx context.Context) {
	if p.stopped.Load() && p.after.Add(1) <= p.limit {
		select {
		case <-ctx.Done():
		case <-time.After(10 * time.Second):
		}
	}
}

func (p *stopProbe) Execute(ctx context.Context, prog *lang.Program, spec jvm.Spec, opt jvm.Options) (*jvm.ExecResult, error) {
	p.gate(ctx)
	return exec.InProcess{}.Execute(ctx, prog, spec, opt)
}

func (p *stopProbe) ExecuteDifferential(ctx context.Context, prog *lang.Program, specs []jvm.Spec, opt jvm.Options) (*jvm.Differential, error) {
	p.gate(ctx)
	return exec.InProcess{}.ExecuteDifferential(ctx, prog, specs, opt)
}

func (p *stopProbe) ExecutePlanDifferential(ctx context.Context, prog *lang.Program, spec jvm.Spec, plans []*jit.Plan, opt jvm.Options) (*jvm.Differential, error) {
	p.gate(ctx)
	return exec.InProcess{}.ExecutePlanDifferential(ctx, prog, spec, plans, opt)
}

// TestParallelStopEndsRunningTasks: once a parallel campaign has merged
// its budget, each task still running does at most one more execution,
// instead of fuzzing to the end of its seed for an outcome the stopped
// campaign discards.
func TestParallelStopEndsRunningTasks(t *testing.T) {
	const workers, budget = 2, 150
	probe := &stopProbe{limit: workers}
	_, err := RunCampaignContext(context.Background(), CampaignConfig{
		Seeds:    corpus.DefaultPool(6, 3),
		Budget:   budget,
		Targets:  []jvm.Spec{{Impl: buginject.HotSpot, Version: 17}},
		Fuzz:     testCampaignCfg(3),
		Seed:     3,
		Workers:  workers,
		Executor: probe,
		OnProgress: func(p Progress) {
			if p.Executions >= budget {
				probe.stopped.Store(true)
			}
		},
	}, harness.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !probe.stopped.Load() {
		t.Fatal("the campaign stopped before merging its budget")
	}
	if n := probe.after.Load(); n > workers {
		t.Errorf("%d executions started after the last merge, want at most one per worker (%d)", n, workers)
	}
}
