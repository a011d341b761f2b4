package jit

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/coverage"
	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/vm"
)

// buildMachine compiles src and returns a machine with no JIT attached
// (tests drive Compiled values by hand).
func buildMachine(t *testing.T, src string) (*vm.Machine, *lang.Program) {
	t.Helper()
	return buildMachineCfg(t, src, vm.Config{})
}

func buildMachineCfg(t testing.TB, src string, cfg vm.Config) (*vm.Machine, *lang.Program) {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := lang.Check(p); err != nil {
		t.Fatal(err)
	}
	img, err := bytecode.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return vm.NewMachine(img, cfg), p
}

func compileByHand(t testing.TB, m *vm.Machine, p *lang.Program, key string) *Compiled {
	t.Helper()
	f, err := LowerProgramFunc(p, key)
	if err != nil {
		t.Fatal(err)
	}
	return &Compiled{F: f, Env: m, Log: profile.NewRecorder(profile.NoFlags()), trapLimit: 2}
}

func TestExecutorSyncReleasesOnThrow(t *testing.T) {
	m, p := buildMachine(t, `
class T {
  static void main() { return; }
  int work(int i) {
    synchronized (this) {
      if (i > 0) { throw 9; }
    }
    return 0;
  }
}`)
	c := compileByHand(t, m, p, "T.work")
	recv := m.NewObject("T")
	_, err := c.Invoke([]vm.Value{recv, vm.IntVal(1)})
	thr, ok := err.(*vm.Thrown)
	if !ok || thr.Code != 9 {
		t.Fatalf("err = %v, want thrown 9", err)
	}
	if m.HeldMonitors() != 0 {
		t.Errorf("monitor leaked: %d held", m.HeldMonitors())
	}
}

func TestExecutorNoExcCleanupLeaks(t *testing.T) {
	m, p := buildMachine(t, `
class T {
  static void main() { return; }
  int work(int i) {
    synchronized (this) {
      if (i > 0) { throw 9; }
    }
    return 0;
  }
}`)
	c := compileByHand(t, m, p, "T.work")
	// Flip the defect flag on the sync node: the exception path must now
	// leak the monitor (the Listing 1 failure the oracles watch for).
	c.F.Body.Walk(func(n *Node) bool {
		if n.Kind == NSync {
			n.NoExcCleanup = true
		}
		return true
	})
	recv := m.NewObject("T")
	_, err := c.Invoke([]vm.Value{recv, vm.IntVal(1)})
	if _, ok := err.(*vm.Thrown); !ok {
		t.Fatalf("err = %v", err)
	}
	if m.HeldMonitors() != 1 {
		t.Errorf("held monitors = %d, want 1 (leak)", m.HeldMonitors())
	}
}

func TestExecutorTrapInvalidatesAfterLimit(t *testing.T) {
	m, p := buildMachine(t, `
class T {
  static void main() { return; }
  int work(int i) {
    int r = i;
    if (i > 5000) { r = r * 2; }
    return r;
  }
}`)
	f, err := LowerProgramFunc(p, "T.work")
	if err != nil {
		t.Fatal(err)
	}
	rec := profile.NewRecorder(profile.DefaultFlags())
	ctx := &Context{Fn: f, Tier: vm.TierC2, Log: rec, Cov: coverage.NewTracker(), Env: m}
	if err := passTraps(ctx); err != nil {
		t.Fatal(err)
	}
	c := &Compiled{F: f, Env: m, Log: rec, trapLimit: 2}
	recv := m.NewObject("T")

	// Below the guard: no traps.
	if v, err := c.Invoke([]vm.Value{recv, vm.IntVal(10)}); err != nil || v.I != 10 {
		t.Fatalf("cold path: %v %v", v, err)
	}
	if m.DeoptCount("T.work") != 0 {
		t.Fatal("premature invalidation")
	}
	// Two trap hits reach the limit and invalidate; results stay correct
	// throughout (the trap interprets the guarded body inline).
	if v, _ := c.Invoke([]vm.Value{recv, vm.IntVal(6000)}); v.I != 12000 {
		t.Fatalf("trap path result = %d", v.I)
	}
	if m.DeoptCount("T.work") != 0 {
		t.Fatal("invalidated after a single trap")
	}
	if v, _ := c.Invoke([]vm.Value{recv, vm.IntVal(7000)}); v.I != 14000 {
		t.Fatalf("trap path result = %d", v.I)
	}
	if m.DeoptCount("T.work") != 1 {
		t.Errorf("DeoptCount = %d, want 1 after %d traps", m.DeoptCount("T.work"), 2)
	}
}

func TestExecutorNullCheckThrows(t *testing.T) {
	m, _ := buildMachine(t, `class T { static void main() { return; } }`)
	c := &Compiled{F: &Func{Class: "T", Name: "synth", Ret: lang.Int,
		Body: Seq(&Node{Kind: NReturn, Kids: []*Node{
			{Kind: NNullCheck, Kids: []*Node{{Kind: NVar, Name: "x", Ty: lang.ObjectType("T")}}},
		}}),
		Params: []lang.Param{{Name: "x", Ty: lang.ObjectType("T")}},
	}, Env: m}
	if _, err := c.Invoke([]vm.Value{vm.NullVal()}); err == nil {
		t.Fatal("null check did not throw")
	}
	obj := m.NewObject("T")
	if v, err := c.Invoke([]vm.Value{obj}); err != nil || v.Obj() != obj.Obj() {
		t.Fatalf("non-null pass-through broken: %v %v", v, err)
	}
}

func TestExecutorScopesShadowing(t *testing.T) {
	m, p := buildMachine(t, `
class T {
  static void main() { return; }
  int work(int i) {
    int x = 1;
    for (int k = 0; k < 3; k += 1) {
      int x2 = x + 10;
      x = x2;
    }
    return x;
  }
}`)
	c := compileByHand(t, m, p, "T.work")
	v, err := c.Invoke([]vm.Value{m.NewObject("T"), vm.IntVal(0)})
	if err != nil || v.I != 31 {
		t.Fatalf("got %v %v, want 31", v, err)
	}
}

func TestExecutorWhileAndConditional(t *testing.T) {
	m, p := buildMachine(t, `
class T {
  static void main() { return; }
  int work(int i) {
    int n = i;
    int steps = 0;
    while (n > 1) {
      n = (n & 1) == 0 ? n / 2 : 3 * n + 1;
      steps = steps + 1;
    }
    return steps;
  }
}`)
	c := compileByHand(t, m, p, "T.work")
	v, err := c.Invoke([]vm.Value{m.NewObject("T"), vm.IntVal(6)})
	if err != nil || v.I != 8 { // 6→3→10→5→16→8→4→2→1
		t.Fatalf("collatz(6) steps = %v (err %v), want 8", v, err)
	}
}
