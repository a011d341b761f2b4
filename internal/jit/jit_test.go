package jit

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/bytecode"
	"repro/internal/coverage"
	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/vm"
)

func compileImg(t *testing.T, src string) *bytecode.Image {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := lang.Check(p); err != nil {
		t.Fatalf("Check: %v", err)
	}
	img, err := bytecode.Compile(p)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if err := bytecode.Verify(img); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return img
}

// runBoth executes src on the pure interpreter and on the JIT-enabled
// machine (aggressive thresholds) and returns both results plus the
// observed compilation contexts.
func runBoth(t *testing.T, src string) (ref, opt *vm.Result, ctxs []*Context) {
	t.Helper()
	img1 := compileImg(t, src)
	ref = vm.NewMachine(img1, vm.Config{}).Run()

	img2 := compileImg(t, src)
	rec := profile.NewRecorder(profile.DefaultFlags())
	cov := coverage.NewTracker()
	comp := New(rec, cov, nil)
	comp.OnCompiled = func(c *Context) { ctxs = append(ctxs, c) }
	opt = vm.NewMachine(img2, vm.Config{C1Threshold: 4, C2Threshold: 8, JIT: comp}).Run()
	return ref, opt, ctxs
}

// assertAgree fails the test when optimized execution diverges from the
// reference interpreter.
func assertAgree(t *testing.T, src string) (opt *vm.Result, ctxs []*Context) {
	t.Helper()
	ref, opt, ctxs := runBoth(t, src)
	if ref.Crashed() {
		t.Fatalf("reference crashed: %v", ref.Crash)
	}
	if opt.Crashed() {
		t.Fatalf("optimized crashed: %v", opt.Crash)
	}
	if ref.OutputString() != opt.OutputString() {
		t.Fatalf("miscompilation:\n-- interpreter --\n%s\n-- compiled --\n%s", ref.OutputString(), opt.OutputString())
	}
	return opt, ctxs
}

func totalCount(ctxs []*Context, b profile.Behavior) int64 {
	var n int64
	for _, c := range ctxs {
		n += c.Count(b)
	}
	return n
}

const hotLoopTemplate = `
class T {
  int f;
  static int sf;
  static void main() {
    T t = new T();
    t.f = 3;
    long acc = 0;
    for (int i = 0; i < 3000; i += 1) {
      acc = acc + t.work(i);
    }
    print(acc);
  }
  int work(int i) {
    BODY
    return r;
  }
}
`

func hotProgram(body string) string {
	return strings.Replace(hotLoopTemplate, "BODY", body, 1)
}

func TestJITAgreesOnArithmetic(t *testing.T) {
	opt, _ := assertAgree(t, hotProgram(`
    int r = i * 3 + (i % 7) - (i >> 2);
    r = r ^ (i << 1);
  `))
	if opt.Tiers["T.work"] != vm.TierC2 {
		t.Errorf("T.work tier = %v, want C2", opt.Tiers["T.work"])
	}
}

func TestJITAgreesOnLoops(t *testing.T) {
	_, ctxs := assertAgree(t, hotProgram(`
    int r = 0;
    for (int k = 0; k < 6; k += 1) {
      r = r + k * i;
    }
    for (int k2 = 0; k2 < 32; k2 += 1) {
      r = r + k2;
    }
  `))
	if totalCount(ctxs, profile.BUnroll) == 0 {
		t.Error("expected unroll events")
	}
	if totalCount(ctxs, profile.BPreMainPost) == 0 {
		t.Error("expected pre/main/post events for the 32-trip loop")
	}
}

func TestJITAgreesOnLoopPeel(t *testing.T) {
	_, ctxs := assertAgree(t, hotProgram(`
    int r = 0;
    for (int k = 0; k < 9; k += 1) {
      if (k == 0) {
        r = r + 100;
      }
      r = r + k;
    }
  `))
	if totalCount(ctxs, profile.BPeel) == 0 {
		t.Error("expected peel events")
	}
}

func TestJITAgreesOnLoopUnswitch(t *testing.T) {
	_, ctxs := assertAgree(t, hotProgram(`
    int r = 0;
    boolean flag = i % 2 == 0;
    for (int k = 0; k < 40; k += 1) {
      if (flag) {
        r = r + k;
      } else {
        r = r - k;
      }
    }
  `))
	if totalCount(ctxs, profile.BUnswitch) == 0 {
		t.Error("expected unswitch events")
	}
}

func TestJITAgreesOnLocks(t *testing.T) {
	opt, ctxs := assertAgree(t, hotProgram(`
    int r = 0;
    synchronized (this) {
      r = r + i;
    }
    synchronized (this) {
      r = r + 1;
    }
    synchronized (this) {
      synchronized (this) {
        r = r + 2;
      }
    }
  `))
	if totalCount(ctxs, profile.BLockCoarsen) == 0 {
		t.Error("expected lock coarsening events")
	}
	if totalCount(ctxs, profile.BNestedLockElim) == 0 {
		t.Error("expected nested lock elimination events")
	}
	if opt.MonitorLeaks != 0 {
		t.Errorf("monitor leaks: %d", opt.MonitorLeaks)
	}
}

func TestJITAgreesOnLockElision(t *testing.T) {
	_, ctxs := assertAgree(t, hotProgram(`
    T tmp = new T();
    int r = 0;
    synchronized (tmp) {
      tmp.f = i;
      r = tmp.f + 1;
    }
  `))
	if totalCount(ctxs, profile.BEscapeNone) == 0 {
		t.Error("expected NoEscape classification")
	}
	if totalCount(ctxs, profile.BLockElim) == 0 {
		t.Error("expected lock elimination events")
	}
	if totalCount(ctxs, profile.BScalarReplace) == 0 {
		t.Error("expected scalar replacement events")
	}
}

func TestJITAgreesOnUnrolledSyncCoarsening(t *testing.T) {
	// The headline interaction: a synchronized region inside a small
	// constant loop fully unrolls into adjacent regions, which lock
	// coarsening then merges. Output must still agree.
	_, ctxs := assertAgree(t, hotProgram(`
    int r = 0;
    for (int k = 0; k < 4; k += 1) {
      synchronized (this) {
        r = r + k + i;
      }
    }
  `))
	if totalCount(ctxs, profile.BUnroll) == 0 {
		t.Fatal("expected unroll")
	}
	if totalCount(ctxs, profile.BLockCoarsen) == 0 {
		t.Fatal("expected coarsening of the unrolled regions")
	}
	// The coarsen event must carry unroll provenance — the interaction.
	seen := false
	for _, c := range ctxs {
		for _, ev := range c.Events {
			if ev.Behavior == profile.BLockCoarsen && ev.Prov.Has(FromUnroll) {
				seen = true
			}
		}
	}
	if !seen {
		t.Error("coarsen event does not carry unroll provenance")
	}
}

func TestJITAgreesOnInlining(t *testing.T) {
	src := `
class T {
  int f;
  static void main() {
    T t = new T();
    t.f = 5;
    long acc = 0;
    for (int i = 0; i < 3000; i += 1) {
      acc = acc + t.caller(i);
    }
    print(acc);
  }
  int caller(int i) {
    int a = T.add(i, this.f);
    int b = T.add(a, 1);
    return a + b;
  }
  static int add(int x, int y) { return x + y; }
}
`
	_, ctxs := assertAgree(t, src)
	if totalCount(ctxs, profile.BInline) == 0 {
		t.Error("expected inline events")
	}
}

func TestJITAgreesOnSynchronizedCalleeInline(t *testing.T) {
	src := `
class T {
  int f;
  static void main() {
    T t = new T();
    t.f = 2;
    long acc = 0;
    for (int i = 0; i < 3000; i += 1) {
      acc = acc + t.caller(i);
    }
    print(acc);
  }
  int caller(int i) {
    int v = this.locked(i);
    return v + 1;
  }
  synchronized int locked(int x) { return x + this.f; }
}
`
	opt, ctxs := assertAgree(t, src)
	if totalCount(ctxs, profile.BInlineSync) == 0 {
		t.Error("expected synchronized-inline events (monitors rewired)")
	}
	if opt.MonitorLeaks != 0 {
		t.Errorf("monitor leaks after sync inline: %d", opt.MonitorLeaks)
	}
}

func TestJITAgreesOnReflectionDereflect(t *testing.T) {
	src := `
class T {
  int f;
  static void main() {
    T t = new T();
    t.f = 4;
    long acc = 0;
    for (int i = 0; i < 2000; i += 1) {
      acc = acc + t.viaReflect(i);
    }
    print(acc);
  }
  int viaReflect(int i) {
    int a = reflect_invoke("T", "mul", this, i);
    int b = reflect_get("T", "f", this);
    return a + b;
  }
  int mul(int x) { return x * 3; }
}
`
	_, ctxs := assertAgree(t, src)
	found := false
	for _, c := range ctxs {
		for _, ev := range c.Events {
			if ev.Pass == "dereflect" {
				found = true
			}
		}
	}
	if !found {
		t.Error("expected dereflect events")
	}
}

func TestJITAgreesOnAutobox(t *testing.T) {
	_, ctxs := assertAgree(t, hotProgram(`
    Integer bx = Integer.valueOf(i + 1);
    int r = bx.intValue() + Integer.valueOf(i).intValue();
  `))
	if totalCount(ctxs, profile.BAutoboxElim) == 0 {
		t.Error("expected autobox elimination events")
	}
}

func TestJITAgreesOnGVNAndAlgebra(t *testing.T) {
	_, ctxs := assertAgree(t, hotProgram(`
    int a = i * 31 + 7;
    int b = i * 31 + 7;
    int c = a + 0;
    int d = b * 1;
    int r = a + b + c + d + (i - i) + (3 + 4);
  `))
	if totalCount(ctxs, profile.BGVN) == 0 {
		t.Error("expected GVN events")
	}
	if totalCount(ctxs, profile.BAlgebraic) == 0 {
		t.Error("expected algebraic simplification events")
	}
}

func TestJITAgreesOnRSEAndDCE(t *testing.T) {
	_, ctxs := assertAgree(t, hotProgram(`
    int r = 1;
    r = 2;
    r = i;
    int dead = i * 999;
    this.f = 1;
    this.f = i;
  `))
	if totalCount(ctxs, profile.BRedundantStore) == 0 {
		t.Error("expected redundant store elimination")
	}
	if totalCount(ctxs, profile.BDCE) == 0 {
		t.Error("expected DCE events")
	}
}

func TestJITAgreesOnExceptions(t *testing.T) {
	assertAgree(t, hotProgram(`
    int r = 0;
    try {
      if (i % 10 == 3) {
        throw i;
      }
      r = i * 2;
    } catch (e) {
      r = e + 1;
    }
    try {
      r = r + 100 / (i % 5);
    } catch (e2) {
      r = r - 1;
    }
  `))
}

func TestJITAgreesOnSyncThrow(t *testing.T) {
	opt, _ := assertAgree(t, hotProgram(`
    int r = 0;
    try {
      synchronized (this) {
        if (i % 7 == 1) {
          throw 5;
        }
        r = i;
      }
    } catch (e) {
      r = e;
    }
  `))
	if opt.MonitorLeaks != 0 {
		t.Errorf("monitor leaks: %d", opt.MonitorLeaks)
	}
}

func TestUncommonTrapDeopt(t *testing.T) {
	// The guard is false through warm-up and fires late: compiled code
	// traps, logs the deopt, invalidates, and the method recompiles
	// without speculation. Output must agree throughout.
	src := `
class T {
  static void main() {
    long acc = 0;
    for (int i = 0; i < 9000; i += 1) {
      acc = acc + T.guarded(i);
    }
    print(acc);
  }
  static int guarded(int i) {
    int r = i;
    if (i > 8000) {
      r = r * 2;
    }
    return r;
  }
}
`
	ref, opt, _ := runBoth(t, src)
	if ref.OutputString() != opt.OutputString() {
		t.Fatalf("deopt divergence:\n%s\nvs\n%s", ref.OutputString(), opt.OutputString())
	}
	if opt.Deopts == 0 {
		t.Error("expected at least one deoptimization")
	}
}

func TestTrapLogAndRecompileEvents(t *testing.T) {
	src := `
class T {
  static void main() {
    long acc = 0;
    for (int i = 0; i < 9000; i += 1) {
      acc = acc + T.guarded(i);
    }
    print(acc);
  }
  static int guarded(int i) {
    int r = i;
    if (i > 6000) {
      r = r * 2;
    }
    return r;
  }
}
`
	img := compileImg(t, src)
	rec := profile.NewRecorder(profile.DefaultFlags())
	cov := coverage.NewTracker()
	comp := New(rec, cov, nil)
	res := vm.NewMachine(img, vm.Config{C1Threshold: 4, C2Threshold: 8, JIT: comp}).Run()
	if res.Crashed() {
		t.Fatalf("crash: %v", res.Crash)
	}
	text := rec.Text()
	if !strings.Contains(text, "Uncommon trap occurred") {
		t.Error("log missing uncommon trap line")
	}
	if !strings.Contains(text, "Deoptimization: recompile") {
		t.Error("log missing recompile line")
	}
	obv := profile.ExtractOBV(text)
	if obv[profile.BUncommonTrap] == 0 || obv[profile.BDeoptRecompile] == 0 {
		t.Errorf("OBV missing deopt behaviors: %v", obv)
	}
}

// crashHook crashes compilation when lock coarsening merges regions
// with unroll provenance — a JDK-8312744-shaped trigger.
type crashHook struct{}

func (crashHook) Observe(ctx *Context, ev Event) error {
	if ev.Behavior == profile.BLockCoarsen && ev.Prov.Has(FromUnroll) {
		return &vm.Crash{BugID: "TEST-1", Component: "Macro Expansion, C2", Message: "null pointer in coarsening retry", FnKey: ctx.Fn.Key()}
	}
	return nil
}

func TestHookCrashPropagates(t *testing.T) {
	src := hotProgram(`
    int r = 0;
    for (int k = 0; k < 4; k += 1) {
      synchronized (this) {
        r = r + k;
      }
    }
  `)
	img := compileImg(t, src)
	rec := profile.NewRecorder(profile.DefaultFlags())
	comp := New(rec, coverage.NewTracker(), crashHook{})
	res := vm.NewMachine(img, vm.Config{C1Threshold: 4, C2Threshold: 8, JIT: comp}).Run()
	if !res.Crashed() {
		t.Fatal("expected a JVM crash")
	}
	if res.Crash.BugID != "TEST-1" {
		t.Errorf("crash bug = %q", res.Crash.BugID)
	}
	if !strings.Contains(res.Crash.HsErrReport("test-vm"), "Macro Expansion") {
		t.Error("hs_err report missing component")
	}
}

// leakHook makes the next inlined synchronized region lose its
// exception cleanup (a miscompilation).
type leakHook struct{}

func (leakHook) Observe(ctx *Context, ev Event) error {
	if ev.Behavior == profile.BInlineSync {
		ctx.DropSyncCleanup = true
	}
	return nil
}

func TestHookMiscompileMonitorLeak(t *testing.T) {
	// locked() throws on rare inputs; with the defect, the rewired
	// monitor is not released on that path.
	src := `
class T {
  int f;
  static void main() {
    T t = new T();
    long acc = 0;
    for (int i = 0; i < 6000; i += 1) {
      try {
        int v = t.caller(i);
        acc = acc + v % 1000;
      } catch (e) {
        acc = acc + e;
      }
    }
    print(acc);
  }
  int caller(int i) {
    int v = this.locked(i);
    return v + 1;
  }
  synchronized int locked(int x) { return this.f + 100 / (x - 5900); }
}
`
	img := compileImg(t, src)
	rec := profile.NewRecorder(profile.DefaultFlags())
	comp := New(rec, coverage.NewTracker(), leakHook{})
	res := vm.NewMachine(img, vm.Config{C1Threshold: 4, C2Threshold: 8, JIT: comp}).Run()
	// The defect must be observable: either a leak or a monitor-state
	// crash, either of which differential testing flags.
	if res.MonitorLeaks == 0 && !res.Crashed() {
		t.Errorf("defect not observable: %+v", res)
	}
}

func TestCoverageAccumulates(t *testing.T) {
	src := hotProgram(`
    int r = 0;
    synchronized (this) { r = i; }
  `)
	img := compileImg(t, src)
	cov := coverage.NewTracker()
	comp := New(profile.NewRecorder(profile.NoFlags()), cov, nil)
	res := vm.NewMachine(img, vm.Config{C1Threshold: 4, C2Threshold: 8, JIT: comp,
		Trace: cov.Hit}).Run()
	if res.Crashed() {
		t.Fatalf("crash: %v", res.Crash)
	}
	if cov.Percent(coverage.C2) <= 0 {
		t.Error("no C2 coverage recorded")
	}
	if cov.Percent(coverage.Runtime) <= 0 {
		t.Error("no Runtime coverage recorded")
	}
	if !cov.Covered("c2.locks.coarsen") && !cov.Covered("c2.locks.eliminate") {
		t.Log("note: no lock-pass coverage; acceptable but unexpected")
	}
}

func TestProfileLogMatchesRules(t *testing.T) {
	src := hotProgram(`
    int r = 0;
    for (int k = 0; k < 4; k += 1) {
      synchronized (this) {
        r = r + k;
      }
    }
    Integer bx = Integer.valueOf(r);
    r = bx.intValue();
  `)
	img := compileImg(t, src)
	rec := profile.NewRecorder(profile.DefaultFlags())
	comp := New(rec, coverage.NewTracker(), nil)
	res := vm.NewMachine(img, vm.Config{C1Threshold: 4, C2Threshold: 8, JIT: comp}).Run()
	if res.Crashed() {
		t.Fatalf("crash: %v", res.Crash)
	}
	obv := profile.ExtractOBV(rec.Text())
	if obv[profile.BUnroll] == 0 {
		t.Errorf("OBV missing Unroll; log:\n%s", rec.Text())
	}
	if obv[profile.BLockCoarsen] == 0 {
		t.Errorf("OBV missing LockCoarsen; log:\n%s", rec.Text())
	}
	if obv[profile.BAutoboxElim] == 0 {
		t.Errorf("OBV missing AutoboxElim; log:\n%s", rec.Text())
	}
	if obv.DistinctTypes() < 3 {
		t.Errorf("OBV too sparse: %v", obv)
	}
}

func TestFlagGatingSilencesLog(t *testing.T) {
	src := hotProgram(`
    int r = 0;
    for (int k = 0; k < 4; k += 1) {
      r = r + k;
    }
  `)
	img := compileImg(t, src)
	rec := profile.NewRecorder(profile.NoFlags())
	comp := New(rec, coverage.NewTracker(), nil)
	res := vm.NewMachine(img, vm.Config{C1Threshold: 4, C2Threshold: 8, JIT: comp}).Run()
	if res.Crashed() {
		t.Fatalf("crash: %v", res.Crash)
	}
	if rec.Len() != 0 {
		t.Errorf("flags off but %d log lines recorded", rec.Len())
	}
}

func TestIRCloneIndependence(t *testing.T) {
	n := Seq(&Node{Kind: NDecl, Name: "x", Kids: []*Node{ConstInt(1)}})
	c := n.Clone()
	c.Kids[0].Name = "y"
	if n.Kids[0].Name != "x" {
		t.Error("Clone is shallow")
	}
}

func TestProvenanceHelpers(t *testing.T) {
	p := FromUnroll | FromCoarsen
	if !p.Has(FromUnroll) || p.Has(FromPeel) {
		t.Error("Prov.Has broken")
	}
	if p.Count() != 2 {
		t.Errorf("Prov.Count = %d", p.Count())
	}
}

func TestIsPure(t *testing.T) {
	pure, err := lowerExprFromSrc(t, "(a + (b * 3))")
	if err != nil || !IsPure(pure) {
		t.Errorf("pure expr misclassified: %v", err)
	}
	impure, err := lowerExprFromSrc(t, "(a / b)")
	if err != nil || IsPure(impure) {
		t.Error("division by variable should be impure")
	}
	divc, err := lowerExprFromSrc(t, "(a / 2)")
	if err != nil || !IsPure(divc) {
		t.Error("division by nonzero constant is pure")
	}
}

func lowerExprFromSrc(t *testing.T, src string) (*Node, error) {
	t.Helper()
	e, err := lang.ParseExprString(src, nil)
	if err != nil {
		return nil, err
	}
	return lowerExpr(e)
}

// TestNodeSize pins the IR node at one 128-byte allocation: Clone and
// Lower allocate one per node, and unrolling clones whole loop bodies.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got > 128 {
		t.Errorf("sizeof(Node) = %d, want <= 128", got)
	}
}
