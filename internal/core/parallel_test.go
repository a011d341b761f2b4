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
	"repro/internal/harness"
	"repro/internal/jvm"
)

// runForCheckpoint runs a campaign to completion with checkpointing on
// and returns the result plus the final checkpoint bytes — the
// strongest equality witness we have, since the snapshot serializes
// executions, findings, deltas, faults, per-seed weights, seen-bug
// set, quarantine index, and the task cursor.
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
// faults before comparing checkpoints: a panic contained on a worker
// goroutine unavoidably records a different goroutine id and engine
// call path than one contained inline, while every semantic fault
// field (class, task, seed, round, message, component, source) is
// asserted identical separately.
func normalizeCheckpoint(t *testing.T, data []byte) string {
	t.Helper()
	var ck harness.Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		t.Fatal(err)
	}
	var st campaignState
	if err := json.Unmarshal(ck.State, &st); err != nil {
		t.Fatal(err)
	}
	for _, f := range st.Faults {
		f.Stack = ""
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	ck.State = raw
	out, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
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
