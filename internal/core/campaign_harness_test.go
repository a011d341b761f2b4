package core

import (
	"context"
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

// panicOnClass is the test-only injectable panicking JIT pass: it blows
// up the compiler whenever a method of the target class is compiled,
// modeling a Go-level defect in the substrate rather than a seeded
// simulated bug.
type panicOnClass struct{ class string }

func (h panicOnClass) Observe(ctx *jit.Context, ev jit.Event) error {
	if ctx.Fn.Class == h.class {
		panic("injected JIT pass panic in " + ctx.Fn.Class + "." + ctx.Fn.Name)
	}
	return nil
}

// boomSeed compiles fine but panics the (hooked) JIT: its workload
// method is hot, so -Xcomp tiers it up on the first call.
var boomSeed = corpus.Seed{Name: "Boom", Source: `
class Boom {
  static void main() {
    long t = 0;
    for (int i = 0; i < 200; i += 1) {
      t = t + Boom.work(i);
    }
    print(t);
  }
  static int work(int x) {
    int y = x * 3 + 1;
    return y;
  }
}
`}

// allocSeed is the fuel-proof infinite allocator: each iteration burns
// a handful of interpreter steps but 5001 heap units, so a heap cap
// fires long before the step-fuel budget would.
var allocSeed = corpus.Seed{Name: "Alloc", Source: `
class Alloc {
  static void main() {
    long s = 0;
    for (int i = 0; i < 2000000; i += 1) {
      int[] a = new int[5000];
      s = s + a[0] + Alloc.work(i);
    }
    print(s);
  }
  static int work(int x) {
    int y = x + 1;
    return y;
  }
}
`}

// emptySeed parses but has no statements, so FuzzSeed rejects it.
var emptySeed = corpus.Seed{Name: "Empty", Source: `
class Empty {
  static void main() { }
}
`}

func testCampaignCfg(seed int64) Config {
	cfg := DefaultConfig(jvm.Spec{Impl: buginject.HotSpot, Version: 17})
	cfg.DiffSpecs = nil
	cfg.Seed = seed
	return cfg
}

func TestCampaignRecordsSeedErrors(t *testing.T) {
	pool := append(corpus.DefaultPool(2, 3), emptySeed)
	res := RunCampaign(CampaignConfig{
		Seeds:   pool,
		Budget:  120,
		Targets: []jvm.Spec{{Impl: buginject.HotSpot, Version: 17}},
		Fuzz:    testCampaignCfg(3),
		Seed:    3,
	})
	if res.Executions < 120 {
		t.Errorf("Executions = %d, want budget reached despite the broken seed", res.Executions)
	}
	if len(res.SeedErrors) == 0 {
		t.Fatal("FuzzSeed error swallowed: no SeedErrors recorded")
	}
	se := res.SeedErrors[0]
	if se.SeedName != "Empty" || se.Err == "" {
		t.Errorf("SeedError = %+v", se)
	}
}

func TestCampaignSurvivesPanickingJITPass(t *testing.T) {
	qdir := t.TempDir()
	fcfg := testCampaignCfg(4)
	fcfg.CompileHook = panicOnClass{class: "Boom"}
	pool := append(corpus.DefaultPool(2, 4), boomSeed)
	res, err := RunCampaignContext(context.Background(), CampaignConfig{
		Seeds:   pool,
		Budget:  150,
		Targets: []jvm.Spec{{Impl: buginject.HotSpot, Version: 17}},
		Fuzz:    fcfg,
		Seed:    4,
	}, harness.Config{QuarantineDir: qdir})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions < 150 {
		t.Errorf("Executions = %d, want budget completion despite the panicking pass", res.Executions)
	}
	counts := res.FaultCounts()
	if counts[harness.FaultHarness] == 0 {
		t.Fatalf("no harness-fault recorded; faults = %+v", res.Faults)
	}
	var fault *harness.Fault
	for _, f := range res.Faults {
		if f.Class == harness.FaultHarness {
			fault = f
		}
	}
	if fault.SeedName != "Boom" || fault.Component != "jit" {
		t.Errorf("fault = %+v, want Boom blamed on jit", fault)
	}
	if fault.QuarantinePath == "" {
		t.Fatal("panicking mutant not quarantined")
	}
	if _, err := os.Stat(fault.QuarantinePath); err != nil {
		t.Errorf("quarantine artifact missing: %v", err)
	}
	// Later rounds skip the quarantined seed instead of re-panicking.
	if res.SkippedQuarantined == 0 {
		t.Error("quarantined seed was not skipped on later rounds")
	}
}

func TestCampaignClassifiesHeapExhaustion(t *testing.T) {
	qdir := t.TempDir()
	fcfg := testCampaignCfg(5)
	fcfg.MaxHeapUnits = 20_000
	pool := append(corpus.DefaultPool(2, 5), allocSeed)
	res, err := RunCampaignContext(context.Background(), CampaignConfig{
		Seeds:   pool,
		Budget:  150,
		Targets: []jvm.Spec{{Impl: buginject.HotSpot, Version: 17}},
		Fuzz:    fcfg,
		Seed:    5,
	}, harness.Config{QuarantineDir: qdir})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions < 150 {
		t.Errorf("Executions = %d, want budget completion despite the allocator seed", res.Executions)
	}
	var fault *harness.Fault
	for _, f := range res.Faults {
		if f.Class == harness.FaultHeapExhausted && f.SeedName == "Alloc" {
			fault = f
		}
	}
	if fault == nil {
		t.Fatalf("no heap-exhausted fault for Alloc; faults = %+v", res.Faults)
	}
	if fault.QuarantinePath == "" {
		t.Fatal("heap-exhaustion trigger not quarantined")
	}
	if fi, err := os.Stat(fault.QuarantinePath); err != nil || fi.Size() == 0 {
		t.Errorf("quarantine artifact missing/empty: %v", err)
	}
	if fault.Source == "" {
		t.Error("fault lost the triggering program source")
	}
}

// TestCampaignHarnessMatchesSequentialMode pins the refactor invariant:
// the supervised engine (watchdog armed but never firing) produces the
// exact result of the default deterministic mode.
func TestCampaignHarnessMatchesSequentialMode(t *testing.T) {
	ccfg := CampaignConfig{
		Seeds:   corpus.DefaultPool(3, 6),
		Budget:  150,
		Targets: []jvm.Spec{{Impl: buginject.HotSpot, Version: 17}},
		Fuzz:    testCampaignCfg(6),
		Seed:    6,
	}
	plain := RunCampaign(ccfg)
	supervised, err := RunCampaignContext(context.Background(), ccfg, harness.Config{ExecTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	assertCampaignsEqual(t, plain, supervised)
}

// TestCampaignCheckpointResumeEquivalence is the acceptance criterion:
// interrupt mid-campaign, resume from the checkpoint, and end with the
// same finding set and execution count as an uninterrupted run.
func TestCampaignCheckpointResumeEquivalence(t *testing.T) {
	ccfg := CampaignConfig{
		Seeds:   corpus.DefaultPool(3, 7),
		Budget:  150,
		Targets: []jvm.Spec{{Impl: buginject.HotSpot, Version: 17}},
		Fuzz:    testCampaignCfg(7),
		Seed:    7,
	}
	uninterrupted := RunCampaign(ccfg)

	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, err := RunCampaignContext(ctx, ccfg, harness.Config{
		CheckpointPath: ckpt,
		OnTask: func(done int) {
			if done == 2 {
				cancel() // simulate SIGINT after the second seed task
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Interrupted {
		t.Fatal("cancellation did not mark the result interrupted (budget too small for the test?)")
	}
	if partial.Executions >= uninterrupted.Executions {
		t.Fatalf("partial run executed %d >= %d: nothing left to resume", partial.Executions, uninterrupted.Executions)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint flushed on interruption: %v", err)
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

func assertCampaignsEqual(t *testing.T, want, got *CampaignResult) {
	t.Helper()
	if got.Executions != want.Executions {
		t.Errorf("Executions = %d, want %d", got.Executions, want.Executions)
	}
	if got.SeedsFuzzed != want.SeedsFuzzed {
		t.Errorf("SeedsFuzzed = %d, want %d", got.SeedsFuzzed, want.SeedsFuzzed)
	}
	if len(got.FinalDeltas) != len(want.FinalDeltas) {
		t.Fatalf("FinalDeltas len = %d, want %d", len(got.FinalDeltas), len(want.FinalDeltas))
	}
	for i := range want.FinalDeltas {
		if got.FinalDeltas[i] != want.FinalDeltas[i] {
			t.Errorf("FinalDeltas[%d] = %v, want %v", i, got.FinalDeltas[i], want.FinalDeltas[i])
		}
	}
	if len(got.Findings) != len(want.Findings) {
		t.Fatalf("Findings len = %d, want %d", len(got.Findings), len(want.Findings))
	}
	for i := range want.Findings {
		w, g := want.Findings[i], got.Findings[i]
		if g.Bug.ID != w.Bug.ID || g.AtExecution != w.AtExecution || g.SeedName != w.SeedName || g.Oracle != w.Oracle {
			t.Errorf("Findings[%d] = {%s %d %s %s}, want {%s %d %s %s}",
				i, g.Bug.ID, g.AtExecution, g.SeedName, g.Oracle, w.Bug.ID, w.AtExecution, w.SeedName, w.Oracle)
		}
	}
}

// holdFirst runs executions in process, holding the first one for hold,
// and counts the executions that start under a context already done.
type holdFirst struct {
	exec.InProcess
	hold    time.Duration
	held    atomic.Bool
	release atomic.Int64 // UnixNano when the held execution resumes
	late    atomic.Int32
}

func (h *holdFirst) Execute(ctx context.Context, p *lang.Program, spec jvm.Spec, opt jvm.Options) (*jvm.ExecResult, error) {
	if ctx.Err() != nil {
		h.late.Add(1)
	}
	if h.held.CompareAndSwap(false, true) {
		h.release.Store(time.Now().Add(h.hold).UnixNano())
		time.Sleep(h.hold)
	}
	return h.InProcess.Execute(ctx, p, spec, opt)
}

// TestWatchdogAbandonedTaskStops: a task the harness watchdog abandons
// starts no execution after its deadline; its held execution finishes
// and the task ends there instead of fuzzing on in the background.
func TestWatchdogAbandonedTaskStops(t *testing.T) {
	h := &holdFirst{hold: 5 * time.Second}
	res, err := RunCampaignContext(context.Background(), CampaignConfig{
		Seeds:    corpus.DefaultPool(2, 3),
		Budget:   60,
		Targets:  []jvm.Spec{{Impl: buginject.HotSpot, Version: 17}},
		Fuzz:     testCampaignCfg(3),
		Seed:     3,
		Executor: h,
	}, harness.Config{ExecTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultCounts()[harness.FaultTimeout] == 0 {
		t.Fatalf("the held task was not abandoned: faults %+v", res.Faults)
	}
	// Give the abandoned task time to go on once its execution resumes.
	time.Sleep(time.Until(time.Unix(0, h.release.Load())) + 500*time.Millisecond)
	if n := h.late.Load(); n > 0 {
		t.Errorf("%d execution(s) started after the watchdog abandoned their task", n)
	}
}
