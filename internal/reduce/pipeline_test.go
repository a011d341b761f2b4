package reduce

import (
	"context"
	"testing"
	"time"

	"repro/internal/buginject"
	"repro/internal/exec"
	"repro/internal/jvm"
	"repro/internal/lang"
	"repro/internal/testbin"
)

// minijvmPath is the minijvm binary TestMain builds. Empty means the
// tests that run it skip (-short or a failed build).
var minijvmPath string

func TestMain(m *testing.M) { testbin.Main(m, map[string]*string{"minijvm": &minijvmPath}) }

func coarsenBug(t *testing.T) *buginject.Bug {
	t.Helper()
	bug := buginject.ByID("JDK-8312744")
	if bug == nil {
		t.Fatal("JDK-8312744 missing from the catalog")
	}
	return bug
}

func TestPipelineReducesFinding(t *testing.T) {
	p := lang.MustParse(crashSrc)
	if err := lang.Check(p); err != nil {
		t.Fatal(err)
	}
	pl := &Pipeline{}
	res := pl.ReduceFinding(context.Background(), p, coarsenBug(t), jvm.Reference())
	if res.StmtsAfter >= res.StmtsBefore {
		t.Errorf("no shrinkage: %d -> %d", res.StmtsBefore, res.StmtsAfter)
	}
	if !crashes(res.Program) {
		t.Fatal("reduced case no longer triggers the bug")
	}
}

// TestPipelineOffTargetBugProbesAllSpecs: a finding whose bug is not
// armed on its own target (differential attribution) still reduces —
// the pipeline widens the probe set to every spec.
func TestPipelineOffTargetBugProbesAllSpecs(t *testing.T) {
	p := lang.MustParse(crashSrc)
	if err := lang.Check(p); err != nil {
		t.Fatal(err)
	}
	bug := coarsenBug(t)
	off := jvm.Spec{Impl: buginject.OpenJ9, Version: 8}
	if bug.In(off.Version) && bug.Impl == off.Impl {
		t.Fatalf("test needs a spec the bug is NOT armed on; %s is armed on %s", bug.ID, off.Name())
	}
	pl := &Pipeline{Options: Options{MaxRounds: 1}}
	res := pl.ReduceFinding(context.Background(), p, bug, off)
	if res.StmtsAfter >= res.StmtsBefore {
		t.Errorf("off-target reduction made no progress: %d -> %d", res.StmtsBefore, res.StmtsAfter)
	}
	if !crashes(res.Program) {
		t.Fatal("reduced case no longer triggers the bug on the armed spec")
	}
}

// TestPipelineCancelledContext: a dead context makes every probe fail,
// so reduction returns promptly with the input unshrunk instead of
// spinning — the property the triage watchdog relies on to reclaim
// abandoned reductions.
func TestPipelineCancelledContext(t *testing.T) {
	p := lang.MustParse(crashSrc)
	if err := lang.Check(p); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res := (&Pipeline{}).ReduceFinding(ctx, p, coarsenBug(t), jvm.Reference())
	if res.StmtsAfter != res.StmtsBefore {
		t.Errorf("cancelled reduction still shrank: %d -> %d", res.StmtsBefore, res.StmtsAfter)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled reduction took %s, want fast drain", elapsed)
	}
}

// TestPipelineSubprocessExecutor: reduction probes run in minijvm child
// processes (the pool backend) and converge to the same minimized
// program as the in-process default.
func TestPipelineSubprocessExecutor(t *testing.T) {
	if minijvmPath == "" {
		t.Skip("minijvm binary unavailable (-short or build failure)")
	}
	p := lang.MustParse(crashSrc)
	if err := lang.Check(p); err != nil {
		t.Fatal(err)
	}
	bug := coarsenBug(t)
	opts := Options{MaxRounds: 1} // bound the child-process count
	inproc := (&Pipeline{Options: opts}).ReduceFinding(context.Background(), p, bug, jvm.Reference())

	pool := exec.NewPool(exec.PoolConfig{Path: minijvmPath, Timeout: 30 * time.Second, Children: 1})
	defer pool.Close()
	viaPool := (&Pipeline{Executor: pool, Options: opts}).ReduceFinding(context.Background(), p, bug, jvm.Reference())

	if viaPool.StmtsAfter >= viaPool.StmtsBefore {
		t.Errorf("pool reduction made no progress: %d -> %d", viaPool.StmtsBefore, viaPool.StmtsAfter)
	}
	if got, want := lang.Format(viaPool.Program), lang.Format(inproc.Program); got != want {
		t.Errorf("backends reduced to different programs:\n-- pool --\n%s\n-- inprocess --\n%s", got, want)
	}
	if !crashes(viaPool.Program) {
		t.Fatal("pool-reduced case no longer triggers the bug")
	}
}
