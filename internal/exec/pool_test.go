package exec_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/jvm"
	"repro/internal/lang"
)

// poolBackend builds a warm-pool backend over the TestMain-built binary,
// closed automatically at test end. Tests tune the config in-place
// before first use.
func poolBackend(t *testing.T, cfg exec.PoolConfig) *exec.Pool {
	t.Helper()
	if minijvmPath == "" {
		t.Skip("minijvm binary unavailable (-short or build failure)")
	}
	cfg.Path = minijvmPath
	if cfg.Timeout == 0 {
		cfg.Timeout = 30 * time.Second
	}
	p := exec.NewPool(cfg)
	t.Cleanup(func() { p.Close() })
	return p
}

// spawnPerExec is the pool at a recycle budget of 1: every batch runs on
// a fresh child, which exits after answering it — one child process per
// execution (or per differential). The TestSubprocess* tests run the
// pool behaviours on this shape.
func spawnPerExec(t *testing.T, cfg exec.PoolConfig) *exec.Pool {
	t.Helper()
	cfg.RecycleAfter = 1
	return poolBackend(t, cfg)
}

// TestPoolMatchesInProcess is the per-execution equivalence table: the
// warm pool — compile cache and all — must reproduce the in-process
// ExecResult exactly, across consecutive executions on the same child.
func TestPoolMatchesInProcess(t *testing.T) {
	testMatchesInProcess(t, poolBackend(t, exec.PoolConfig{}))
}

func TestSubprocessMatchesInProcess(t *testing.T) {
	testMatchesInProcess(t, spawnPerExec(t, exec.PoolConfig{}))
}

func testMatchesInProcess(t *testing.T, pool *exec.Pool) {
	seeds := corpus.DefaultPool(4, 3)
	for _, tc := range []struct {
		name string
		opt  jvm.Options
	}{
		{"xcomp", jvm.Options{ForceCompile: true, MaxSteps: 2_000_000}},
		{"structured-obv", jvm.Options{ForceCompile: true, StructuredOBV: true}},
		{"interp", jvm.Options{PureInterpreter: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range seeds {
				p, err := lang.Parse(seed.Source)
				if err != nil {
					t.Fatal(err)
				}
				want, wantErr := exec.InProcess{}.Execute(context.Background(), lang.CloneProgram(p), hotspot17(), tc.opt)
				got, gotErr := pool.Execute(context.Background(), p, hotspot17(), tc.opt)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s: error mismatch: %v vs %v", seed.Name, wantErr, gotErr)
				}
				if wantErr != nil {
					if wantErr.Error() != gotErr.Error() {
						t.Fatalf("%s: error text diverged: %q vs %q", seed.Name, wantErr, gotErr)
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: backends diverged\n got: %+v\nwant: %+v", seed.Name, got, want)
				}
			}
		})
	}
	if st := pool.Stats(); st.Spawns == 0 || st.Executions == 0 {
		t.Errorf("pool counters empty: %+v", pool.Stats())
	}
}

// TestPoolDifferentialMatchesInProcess: a full differential must ride
// one batch on one child and still group exactly like
// jvm.RunDifferential.
func TestPoolDifferentialMatchesInProcess(t *testing.T) {
	testDifferentialMatchesInProcess(t, poolBackend(t, exec.PoolConfig{}))
}

func TestSubprocessDifferentialMatchesInProcess(t *testing.T) {
	testDifferentialMatchesInProcess(t, spawnPerExec(t, exec.PoolConfig{}))
}

func testDifferentialMatchesInProcess(t *testing.T, pool *exec.Pool) {
	seed := corpus.DefaultPool(1, 9)[0]
	p, err := lang.Parse(seed.Source)
	if err != nil {
		t.Fatal(err)
	}
	opt := jvm.Options{ForceCompile: true, MaxSteps: 2_000_000}
	want, err := exec.InProcess{}.ExecuteDifferential(context.Background(), lang.CloneProgram(p), jvm.AllSpecs(), opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.ExecuteDifferential(context.Background(), p, jvm.AllSpecs(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Errorf("groups diverged: %v vs %v", got.Groups, want.Groups)
	}
	for i := range got.Results {
		if !reflect.DeepEqual(got.Results[i], want.Results[i]) {
			t.Errorf("result %d (%s) diverged", i, want.Results[i].Spec.Name())
		}
	}
	st := pool.Stats()
	if n := int64(len(jvm.AllSpecs())); st.SpawnsAvoided != n-1 {
		t.Errorf("SpawnsAvoided = %d, want %d (one spawn for a %d-spec differential)", st.SpawnsAvoided, n-1, n)
	}
	if mb := st.MeanBatch(); mb <= 1 {
		t.Errorf("MeanBatch = %.1f, want > 1 (differential must be batched)", mb)
	}
}

// poolCampaign runs the standing equivalence campaign (differentials
// enabled, so the batched path is exercised inside the engine).
func poolCampaign(t *testing.T, ex exec.Executor, hcfg harness.Config, ctx context.Context) *core.CampaignResult {
	t.Helper()
	cfg := core.DefaultConfig(hotspot17())
	res, err := core.RunCampaignContext(ctx, core.CampaignConfig{
		Seeds:    corpus.DefaultPool(2, 5),
		Budget:   60,
		Fuzz:     cfg,
		Seed:     5,
		Executor: ex,
	}, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertCampaignsIdentical(t *testing.T, label string, got, want *core.CampaignResult) {
	t.Helper()
	if got.Executions != want.Executions || got.SeedsFuzzed != want.SeedsFuzzed {
		t.Errorf("%s: campaign shape diverged: %d/%d executions, %d/%d seeds",
			label, got.Executions, want.Executions, got.SeedsFuzzed, want.SeedsFuzzed)
	}
	if !reflect.DeepEqual(got.FinalDeltas, want.FinalDeltas) {
		t.Errorf("%s: FinalDeltas diverged: %v vs %v", label, got.FinalDeltas, want.FinalDeltas)
	}
	if len(got.Findings) != len(want.Findings) {
		t.Fatalf("%s: finding counts diverged: %d vs %d", label, len(got.Findings), len(want.Findings))
	}
	for i := range got.Findings {
		g, w := got.Findings[i], want.Findings[i]
		if g.Bug.ID != w.Bug.ID || g.Oracle != w.Oracle || g.SeedName != w.SeedName || g.AtExecution != w.AtExecution {
			t.Errorf("%s: finding %d diverged: %+v vs %+v", label, i, g, w)
		}
	}
}

// TestPoolCampaignEquivalence is the backend byte-identity acceptance
// test: inprocess ≡ pool ≡ spawn-per-exec pool on the same campaign,
// with differentials enabled so batching is on the hot path.
func TestPoolCampaignEquivalence(t *testing.T) {
	if minijvmPath == "" {
		t.Skip("minijvm binary unavailable (-short or build failure)")
	}
	ctx := context.Background()
	want := poolCampaign(t, nil, harness.Config{}, ctx)
	for _, cell := range []struct {
		name string
		cfg  exec.PoolConfig
	}{{"pool", exec.PoolConfig{}}, {"spawn-per-exec", exec.PoolConfig{RecycleAfter: 1}}} {
		pool := poolBackend(t, cell.cfg)
		assertCampaignsIdentical(t, cell.name, poolCampaign(t, pool, harness.Config{}, ctx), want)
		if st := pool.Stats(); st.Executions == 0 {
			t.Errorf("%s recorded no executions — campaign did not go through it", cell.name)
		}
	}
}

// TestPoolCampaignRecycleEquivalence: with an aggressive recycle budget
// every few executions land on a fresh child, and the campaign must
// still be byte-identical — recycling is invisible to results.
func TestPoolCampaignRecycleEquivalence(t *testing.T) {
	pool := poolBackend(t, exec.PoolConfig{RecycleAfter: 5})
	ctx := context.Background()
	want := poolCampaign(t, nil, harness.Config{}, ctx)
	got := poolCampaign(t, pool, harness.Config{}, ctx)
	assertCampaignsIdentical(t, "pool-recycling", got, want)
	st := pool.Stats()
	if st.RecycledByCount == 0 {
		t.Errorf("test is vacuous: no recycles at RecycleAfter=5 over %d executions", st.Executions)
	}
	if st.Spawns < 2 {
		t.Errorf("Spawns = %d, want several (recycling must spawn replacements)", st.Spawns)
	}
}

// TestPoolCampaignCheckpointResumeEquivalence: interrupt a pooled
// campaign mid-flight, resume it on a NEW pool (fresh children, cold
// caches), and require the exact result of an uninterrupted in-process
// run.
func TestPoolCampaignCheckpointResumeEquivalence(t *testing.T) {
	if minijvmPath == "" {
		t.Skip("minijvm binary unavailable (-short or build failure)")
	}
	want := poolCampaign(t, nil, harness.Config{}, context.Background())

	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pool1 := poolBackend(t, exec.PoolConfig{})
	partial := poolCampaign(t, pool1, harness.Config{
		CheckpointPath: ckpt,
		OnTask: func(done int) {
			if done == 1 {
				cancel()
			}
		},
	}, ctx)
	if !partial.Interrupted {
		t.Fatal("cancellation did not mark the result interrupted")
	}
	if partial.Executions >= want.Executions {
		t.Fatalf("partial run executed %d >= %d: nothing left to resume", partial.Executions, want.Executions)
	}
	pool1.Close()

	pool2 := poolBackend(t, exec.PoolConfig{})
	resumed := poolCampaign(t, pool2, harness.Config{CheckpointPath: ckpt, ResumePath: ckpt}, context.Background())
	if !resumed.Resumed {
		t.Error("resumed run not marked Resumed")
	}
	assertCampaignsIdentical(t, "pool-resume", resumed, want)
}

// TestPoolRecycleAfterK pins the execution-budget recycle policy: with
// RecycleAfter=3, ten executions must retire at least two children and
// replace them with fresh PIDs, with every result still correct.
func TestPoolRecycleAfterK(t *testing.T) {
	pool := poolBackend(t, exec.PoolConfig{RecycleAfter: 3, Children: 1})
	prog := wireTestProg(t)
	want, err := exec.InProcess{}.Execute(context.Background(), lang.CloneProgram(prog), hotspot17(), jvm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pids := map[int]bool{}
	for i := 0; i < 10; i++ {
		got, err := pool.Execute(context.Background(), prog, hotspot17(), jvm.Options{})
		if err != nil {
			t.Fatalf("execution %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("execution %d diverged after recycle", i)
		}
		for _, pid := range pool.Pids() {
			pids[pid] = true
		}
	}
	st := pool.Stats()
	if st.RecycledByCount < 2 {
		t.Errorf("RecycledByCount = %d, want >= 2 after 10 executions at RecycleAfter=3", st.RecycledByCount)
	}
	if st.RecycledByMem != 0 {
		t.Errorf("RecycledByMem = %d, want 0 (budget recycles must not count as memory recycles)", st.RecycledByMem)
	}
	if len(pids) < 3 {
		t.Errorf("saw %d distinct child pids, want >= 3 (recycling must spawn fresh children)", len(pids))
	}
}

// TestPoolRecycleOnMemHighWater: a 1-byte high-water mark trips on
// every batch (any live Go heap exceeds it), so each execution must
// retire its child as a memory recycle — and results stay correct.
func TestPoolRecycleOnMemHighWater(t *testing.T) {
	pool := poolBackend(t, exec.PoolConfig{MaxChildHeapBytes: 1, Children: 1})
	prog := wireTestProg(t)
	for i := 0; i < 3; i++ {
		if _, err := pool.Execute(context.Background(), prog, hotspot17(), jvm.Options{}); err != nil {
			t.Fatalf("execution %d: %v", i, err)
		}
	}
	st := pool.Stats()
	if st.RecycledByMem != 3 {
		t.Errorf("RecycledByMem = %d, want 3 (every batch must trip a 1-byte high-water mark)", st.RecycledByMem)
	}
	if st.Spawns != 3 {
		t.Errorf("Spawns = %d, want 3 (each execution needs a fresh child)", st.Spawns)
	}
}

// TestPoolClassifiesChildPanic: a substrate panic mid-batch is a
// deterministic failure — classified FaultHarness with the child's
// stack, and NOT retried (it would just panic again).
func TestPoolClassifiesChildPanic(t *testing.T) {
	testClassifiesChildPanic(t, poolBackend(t, exec.PoolConfig{InjectFault: "panic"}))
}

func TestSubprocessClassifiesChildPanic(t *testing.T) {
	testClassifiesChildPanic(t, spawnPerExec(t, exec.PoolConfig{InjectFault: "panic"}))
}

func testClassifiesChildPanic(t *testing.T, pool *exec.Pool) {
	_, err := pool.Execute(context.Background(), wireTestProg(t), hotspot17(), jvm.Options{})
	var bf *exec.BackendFault
	if !errors.As(err, &bf) {
		t.Fatalf("want BackendFault, got %v", err)
	}
	if bf.Class != harness.FaultHarness {
		t.Errorf("class = %s, want %s", bf.Class, harness.FaultHarness)
	}
	if f := harness.AsFault(err); f == nil || f.Stack == "" {
		t.Errorf("fault must carry the child's stderr as its stack, got %+v", f)
	}
	st := pool.Stats()
	if st.Faults != 1 {
		t.Errorf("fault counter = %d, want 1", st.Faults)
	}
	if st.Retries != 0 {
		t.Errorf("retries = %d, want 0 — panics are deterministic and must not be retried", st.Retries)
	}
}

// TestPoolClassifiesChildHang: a hung child trips the batch deadline,
// is killed, and classifies FaultTimeout — never retried.
func TestPoolClassifiesChildHang(t *testing.T) {
	testClassifiesChildHang(t, poolBackend(t, exec.PoolConfig{InjectFault: "hang", Timeout: 300 * time.Millisecond}))
}

func TestSubprocessClassifiesChildHang(t *testing.T) {
	testClassifiesChildHang(t, spawnPerExec(t, exec.PoolConfig{InjectFault: "hang", Timeout: 300 * time.Millisecond}))
}

func testClassifiesChildHang(t *testing.T, pool *exec.Pool) {
	start := time.Now()
	_, err := pool.Execute(context.Background(), wireTestProg(t), hotspot17(), jvm.Options{})
	var bf *exec.BackendFault
	if !errors.As(err, &bf) {
		t.Fatalf("want BackendFault, got %v", err)
	}
	if bf.Class != harness.FaultTimeout {
		t.Errorf("class = %s, want %s", bf.Class, harness.FaultTimeout)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("batch deadline took %s to fire", elapsed)
	}
	if st := pool.Stats(); st.Retries != 0 {
		t.Errorf("retries = %d, want 0 — timeouts must not be retried", st.Retries)
	}
}

// TestPoolParentCancellationIsNotAFault: caller shutdown mid-batch is
// context.Canceled, not a fault.
func TestPoolParentCancellationIsNotAFault(t *testing.T) {
	testParentCancellationIsNotAFault(t, poolBackend(t, exec.PoolConfig{InjectFault: "hang"}))
}

func TestSubprocessParentCancellationIsNotAFault(t *testing.T) {
	testParentCancellationIsNotAFault(t, spawnPerExec(t, exec.PoolConfig{InjectFault: "hang"}))
}

func testParentCancellationIsNotAFault(t *testing.T, pool *exec.Pool) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(100 * time.Millisecond); cancel() }()
	_, err := pool.Execute(ctx, wireTestProg(t), hotspot17(), jvm.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if harness.AsFault(err) != nil {
		t.Error("parent shutdown must not be classified as a fault")
	}
}

// TestPoolRetriesKilledChild is the SIGKILL chaos test: kill the warm
// child out from under the pool, and the next execution must succeed
// transparently on a fresh child — one retry, zero faults, identical
// result.
func TestPoolRetriesKilledChild(t *testing.T) {
	pool := poolBackend(t, exec.PoolConfig{Children: 1})
	prog := wireTestProg(t)
	want, err := pool.Execute(context.Background(), prog, hotspot17(), jvm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pids := pool.Pids()
	if len(pids) != 1 {
		t.Fatalf("want 1 warm child, have pids %v", pids)
	}
	if err := syscall.Kill(pids[0], syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	// Give the kernel a moment to reap the pipe so the next write fails.
	time.Sleep(50 * time.Millisecond)

	got, err := pool.Execute(context.Background(), prog, hotspot17(), jvm.Options{})
	if err != nil {
		t.Fatalf("execution after SIGKILL failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("result diverged across a kill-and-recycle")
	}
	st := pool.Stats()
	if st.Retries != 1 {
		t.Errorf("retries = %d, want 1", st.Retries)
	}
	if st.Faults != 0 {
		t.Errorf("faults = %d, want 0 — a recovered kill is not a fault", st.Faults)
	}
	if next := pool.Pids(); len(next) != 1 || next[0] == pids[0] {
		t.Errorf("pool pids = %v, want one fresh child (old pid %d)", next, pids[0])
	}
}

// TestPoolDieInjectionFaultsAfterRetry: a child that dies abruptly on
// every request (the persistent-SIGKILL shape) gets exactly one retry
// on a fresh child, then faults as a marker-less FaultHarness.
func TestPoolDieInjectionFaultsAfterRetry(t *testing.T) {
	pool := poolBackend(t, exec.PoolConfig{InjectFault: "die"})
	_, err := pool.Execute(context.Background(), wireTestProg(t), hotspot17(), jvm.Options{})
	var bf *exec.BackendFault
	if !errors.As(err, &bf) {
		t.Fatalf("want BackendFault, got %v", err)
	}
	if bf.Class != harness.FaultHarness {
		t.Errorf("class = %s, want %s", bf.Class, harness.FaultHarness)
	}
	st := pool.Stats()
	if st.Retries != 1 {
		t.Errorf("retries = %d, want exactly 1", st.Retries)
	}
	if st.Faults != 1 {
		t.Errorf("faults = %d, want 1", st.Faults)
	}
}

// TestPoolCorruptFrameFaultsAfterRetry: a child that corrupts its
// response framing is killed and retried once; persisting corruption
// becomes a FaultHarness, not a hang or a decode crash.
func TestPoolCorruptFrameFaultsAfterRetry(t *testing.T) {
	pool := poolBackend(t, exec.PoolConfig{InjectFault: "corrupt"})
	_, err := pool.Execute(context.Background(), wireTestProg(t), hotspot17(), jvm.Options{})
	var bf *exec.BackendFault
	if !errors.As(err, &bf) {
		t.Fatalf("want BackendFault, got %v", err)
	}
	if bf.Class != harness.FaultHarness {
		t.Errorf("class = %s, want %s", bf.Class, harness.FaultHarness)
	}
	if st := pool.Stats(); st.Retries != 1 {
		t.Errorf("retries = %d, want exactly 1", st.Retries)
	}
}

// TestPoolRejectsNullResponse: a child whose batch response carries a
// null entry is a corrupt frame — retried once on a fresh child, then a
// marker-less FaultHarness — never a nil dereference in the parent. The
// child is a shell script that speaks the hello and answers every batch
// with the bad frame.
func TestPoolRejectsNullResponse(t *testing.T) {
	script := filepath.Join(t.TempDir(), "nullchild")
	body := fmt.Sprintf(`#!/bin/sh
echo '{"version":%[1]d,"pid":'$$'}'
while read -r line; do
  echo '{"version":%[1]d,"responses":[null],"telemetry":{"executions":1,"heap_bytes":1}}'
done
`, exec.WireVersion)
	if err := os.WriteFile(script, []byte(body), 0o755); err != nil {
		t.Fatal(err)
	}
	pool := exec.NewPool(exec.PoolConfig{Path: script, Timeout: 10 * time.Second, Children: 1})
	defer pool.Close()
	_, err := pool.Execute(context.Background(), wireTestProg(t), hotspot17(), jvm.Options{})
	var bf *exec.BackendFault
	if !errors.As(err, &bf) {
		t.Fatalf("want BackendFault, got %v", err)
	}
	if bf.Class != harness.FaultHarness || !strings.Contains(bf.Message, "null") {
		t.Errorf("fault = %s %q, want a harness fault naming the null response", bf.Class, bf.Message)
	}
	if st := pool.Stats(); st.Retries != 1 || st.Faults != 1 {
		t.Errorf("retries = %d, faults = %d, want 1 and 1", st.Retries, st.Faults)
	}
}

// TestPoolCampaignSurvivesBackendFault pins process-level containment:
// a child that panics on every execution becomes per-seed harness
// faults; the campaign itself finishes cleanly.
func TestPoolCampaignSurvivesBackendFault(t *testing.T) {
	testCampaignSurvivesBackendFault(t, poolBackend(t, exec.PoolConfig{InjectFault: "panic"}))
}

func TestCampaignSurvivesBackendFault(t *testing.T) {
	testCampaignSurvivesBackendFault(t, spawnPerExec(t, exec.PoolConfig{InjectFault: "panic"}))
}

func testCampaignSurvivesBackendFault(t *testing.T, pool *exec.Pool) {
	cfg := core.DefaultConfig(hotspot17())
	cfg.DiffSpecs = nil
	res, err := core.RunCampaignContext(context.Background(), core.CampaignConfig{
		Seeds:    corpus.DefaultPool(2, 1),
		Budget:   50,
		Fuzz:     cfg,
		Seed:     1,
		Executor: pool,
	}, harness.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Faults) == 0 {
		t.Fatal("no faults recorded — pool child deaths were swallowed")
	}
	for _, f := range res.Faults {
		if f.SeedName == "" {
			t.Errorf("fault missing seed attribution: %+v", f)
		}
	}
	if res.Executions != 0 || len(res.Findings) != 0 {
		t.Errorf("faulting backend must not produce results: %d execs, %d findings", res.Executions, len(res.Findings))
	}
}

// TestPoolCrashRoundTrip: a simulated JVM crash crosses the batched
// wire intact and is a result, not a backend fault.
func TestPoolCrashRoundTrip(t *testing.T) {
	testCrashRoundTrip(t, poolBackend(t, exec.PoolConfig{}))
}

func TestSubprocessCrashRoundTrip(t *testing.T) {
	testCrashRoundTrip(t, spawnPerExec(t, exec.PoolConfig{}))
}

func testCrashRoundTrip(t *testing.T, pool *exec.Pool) {
	p, err := lang.Parse(crashSrc)
	if err != nil {
		t.Fatal(err)
	}
	opt := jvm.Options{ForceCompile: true}
	want, err := exec.InProcess{}.Execute(context.Background(), lang.CloneProgram(p), hotspot17(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Crashed() {
		t.Fatal("reproducer no longer crashes in-process")
	}
	got, err := pool.Execute(context.Background(), p, hotspot17(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("crash result diverged\n got: %+v\nwant: %+v", got.Result.Crash, want.Result.Crash)
	}
	if pool.Stats().Faults != 0 {
		t.Error("a simulated crash must not count as a backend fault")
	}
}

// TestPoolCloseUnblocksAndFailsExecutes: Close kills the warm children
// and subsequent Executes fail fast instead of hanging on an empty
// pool.
func TestPoolCloseUnblocksAndFailsExecutes(t *testing.T) {
	pool := poolBackend(t, exec.PoolConfig{Children: 1})
	prog := wireTestProg(t)
	if _, err := pool.Execute(context.Background(), prog, hotspot17(), jvm.Options{}); err != nil {
		t.Fatal(err)
	}
	pids := pool.Pids()
	pool.Close()
	if len(pool.Pids()) != 0 {
		t.Errorf("children still live after Close: %v", pool.Pids())
	}
	if _, err := pool.Execute(context.Background(), prog, hotspot17(), jvm.Options{}); err == nil {
		t.Error("Execute after Close must fail")
	}
	for _, pid := range pids {
		// Signal 0 probes liveness; ESRCH means the child is truly gone.
		if err := syscall.Kill(pid, 0); err == nil {
			t.Errorf("child %d survived Close", pid)
		}
	}
}

// TestSubprocessDifferentialSingleSpawn pins spawn-per-exec: every
// batch — a whole differential or a single execution — runs on its own
// fresh child, so spawns == batches and each child is retired by the
// recycle budget after its one batch.
func TestSubprocessDifferentialSingleSpawn(t *testing.T) {
	pool := spawnPerExec(t, exec.PoolConfig{Children: 1})
	seed := corpus.DefaultPool(1, 9)[0]
	p, err := lang.Parse(seed.Source)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := pool.ExecuteDifferential(context.Background(), p, jvm.AllSpecs(), jvm.Options{ForceCompile: true}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pool.Execute(context.Background(), p, hotspot17(), jvm.Options{ForceCompile: true}); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	n := int64(len(jvm.AllSpecs()))
	if st.Batches != 3 || st.Spawns != st.Batches {
		t.Errorf("Spawns = %d, Batches = %d, want 3 and 3 (one child per batch)", st.Spawns, st.Batches)
	}
	if st.RecycledByCount != st.Batches {
		t.Errorf("RecycledByCount = %d, want %d (every child retires after its batch)", st.RecycledByCount, st.Batches)
	}
	if st.SpawnsAvoided != 2*(n-1) {
		t.Errorf("SpawnsAvoided = %d, want %d (a differential shares one child)", st.SpawnsAvoided, 2*(n-1))
	}
	if st.Executions != 2*n+1 {
		t.Errorf("Executions = %d, want %d", st.Executions, 2*n+1)
	}
}
