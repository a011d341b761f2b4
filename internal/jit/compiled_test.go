package jit

import (
	"errors"
	"math"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/coverage"
	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/vm"
)

// buildMachine compiles src and returns a machine with no JIT attached
// (tests drive Compiled values by hand).
func buildMachine(t testing.TB, src string) (*vm.Machine, *lang.Program) {
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

// emitByHand emits f, links it into m's image and verifies it, as
// Compile does after the passes.
func emitByHand(t testing.TB, m *vm.Machine, f *Func, log profile.Emitter) *Compiled {
	t.Helper()
	code := emit(f, m.Image())
	if err := m.Image().LinkFunction(code); err != nil {
		t.Fatal(err)
	}
	if err := m.Image().VerifyFunction(code); err != nil {
		t.Fatalf("%v\n%s", err, bytecode.Disassemble(code))
	}
	return &Compiled{Code: code, Env: m, Log: log, trapLimit: 2}
}

// compileByHand lowers the named method unoptimized and emits it.
func compileByHand(t testing.TB, m *vm.Machine, p *lang.Program, key string) *Compiled {
	t.Helper()
	f, err := LowerProgramFunc(p, key)
	if err != nil {
		t.Fatal(err)
	}
	return emitByHand(t, m, f, profile.NewRecorder(profile.NoFlags()))
}

func TestExecutorSyncReleasesOnThrow(t *testing.T) {
	m, p := buildMachine(t, syncThrowSrc)
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

const syncThrowSrc = `
class T {
  static void main() { return; }
  int work(int i) {
    synchronized (this) {
      if (i > 0) { throw 9; }
    }
    return 0;
  }
}`

// TestExecutorNoExcCleanupLeaks: a region whose exception cleanup a
// seeded defect dropped keeps its monitor when a throw leaves it, but
// releases it on the normal path and when the run is cut short.
func TestExecutorNoExcCleanupLeaks(t *testing.T) {
	m, p := buildMachine(t, syncThrowSrc)
	f, err := LowerProgramFunc(p, "T.work")
	if err != nil {
		t.Fatal(err)
	}
	f.Body.Walk(func(n *Node) bool {
		if n.Kind == NSync {
			n.NoExcCleanup = true
		}
		return true
	})
	c := emitByHand(t, m, f, profile.NewRecorder(profile.NoFlags()))
	recv := m.NewObject("T")
	if _, err := c.Invoke([]vm.Value{recv, vm.IntVal(0)}); err != nil || m.HeldMonitors() != 0 {
		t.Fatalf("normal path: err %v, %d held, want nil and 0", err, m.HeldMonitors())
	}
	if _, err := c.Invoke([]vm.Value{recv, vm.IntVal(1)}); !isThrown(err) {
		t.Fatalf("err = %v, want a thrown exception", err)
	}
	if m.HeldMonitors() != 1 {
		t.Errorf("held monitors = %d, want 1 (leak)", m.HeldMonitors())
	}
}

func isThrown(err error) bool {
	_, ok := err.(*vm.Thrown)
	return ok
}

// TestExecutorTimeoutReleasesMonitors: a step budget running out inside
// a compiled monitor region releases the monitor, as compiled code
// unwinding its regions does; an interpreted frame keeps it.
func TestExecutorTimeoutReleasesMonitors(t *testing.T) {
	const src = `
class T {
  static void main() { return; }
  int work(int i) {
    int s = 0;
    synchronized (this) {
      while (i > 0) { s = s + 1; }
    }
    return s;
  }
}`
	m, p := buildMachineCfg(t, src, vm.Config{MaxSteps: 500})
	c := compileByHand(t, m, p, "T.work")
	if _, err := c.Invoke([]vm.Value{m.NewObject("T"), vm.IntVal(1)}); !errors.Is(err, vm.ErrTimeout) {
		t.Fatalf("err = %v, want a timeout", err)
	}
	if m.HeldMonitors() != 0 {
		t.Errorf("held monitors = %d after a compiled timeout, want 0", m.HeldMonitors())
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
	c := emitByHand(t, m, f, rec)
	recv := m.NewObject("T")

	// Below the guard: no traps.
	if v, err := c.Invoke([]vm.Value{recv, vm.IntVal(10)}); err != nil || v.I != 10 {
		t.Fatalf("cold path: %v %v", v, err)
	}
	if m.DeoptCount("T.work") != 0 {
		t.Fatal("premature invalidation")
	}
	// Two trap hits reach the limit and invalidate; results stay correct
	// throughout (the trap runs the guarded body inline).
	if v, _ := c.Invoke([]vm.Value{recv, vm.IntVal(6000)}); v.I != 12000 {
		t.Fatalf("trap path result = %d", v.I)
	}
	if m.DeoptCount("T.work") != 0 {
		t.Fatal("invalidated after a single trap")
	}
	// The trap count belongs to the Compiled, not the shared code: a
	// second Compiled of the same code on the same machine starts at 0.
	other := &Compiled{Code: c.Code, Env: m, Log: rec, trapLimit: 2}
	if v, _ := other.Invoke([]vm.Value{recv, vm.IntVal(6000)}); v.I != 12000 || m.DeoptCount("T.work") != 0 {
		t.Fatalf("second Compiled: result %d, %d deopts, want 12000 and 0", v.I, m.DeoptCount("T.work"))
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
	c := emitByHand(t, m, &Func{Class: "T", Name: "synth", Ret: lang.Int,
		Body: Seq(&Node{Kind: NReturn, Kids: []*Node{
			{Kind: NNullCheck, Kids: []*Node{{Kind: NVar, Name: "x", Ty: lang.ObjectType("T")}}},
		}}),
		Params: []lang.Param{{Name: "x", Ty: lang.ObjectType("T")}},
	}, nil)
	if _, err := c.Invoke([]vm.Value{vm.NullVal()}); err == nil {
		t.Fatal("null check did not throw")
	}
	obj := m.NewObject("T")
	if v, err := c.Invoke([]vm.Value{obj}); err != nil || v != obj {
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

// Hand-built IR helpers (int-typed).
func irDecl(name string, v *Node) *Node {
	return &Node{Kind: NDecl, Name: name, Ty: lang.Int, Kids: []*Node{v}}
}

func irSet(name string, v *Node) *Node {
	return &Node{Kind: NAssignVar, Name: name, Ty: lang.Int, Kids: []*Node{v}}
}

func irVar(name string) *Node { return Var(name, lang.Int) }

func irBin(op lang.BinOp, l, r *Node) *Node {
	return &Node{Kind: NBinary, BinOp: op, Ty: lang.Int, Kids: []*Node{l, r}}
}

func irReturn(v *Node) *Node { return &Node{Kind: NReturn, Kids: []*Node{v}} }

// irDigit appends x as the next decimal digit of acc.
func irDigit(x *Node) *Node {
	return irSet("acc", irBin(lang.OpAdd, irBin(lang.OpMul, irVar("acc"), ConstInt(10)), x))
}

func synthFunc(body ...*Node) *Func {
	return &Func{Class: "T", Name: "synth", Ret: lang.Int, Body: Seq(body...),
		Params: []lang.Param{{Name: "p", Ty: lang.Int}}}
}

// TestExecutorBindingSemantics runs hand-built IR through Invoke for
// each scoping rule of compiled code: the innermost binding wins, a
// sequence's bindings end with it, an assignment to an unbound name
// binds it in the innermost scope (optimizations materialize variables
// without declarations), and reading an unbound name is an internal
// error.
func TestExecutorBindingSemantics(t *testing.T) {
	cases := []struct {
		name    string
		body    []*Node
		want    int64
		wantErr string
	}{
		{
			name: "shadowing in nested seqs",
			body: []*Node{
				irDecl("acc", ConstInt(0)),
				irDecl("x", ConstInt(1)),
				Seq(
					irDecl("x", ConstInt(2)),
					Seq(irDecl("x", ConstInt(3)), irDigit(irVar("x"))),
					irDigit(irVar("x")),
					irSet("x", ConstInt(4)),
					irDigit(irVar("x")),
				),
				irDigit(irVar("x")),
				irReturn(irVar("acc")),
			},
			want: 3241,
		},
		{
			name: "redeclaring in one scope rebinds",
			body: []*Node{
				irDecl("acc", ConstInt(0)),
				irDecl("x", ConstInt(1)),
				irDigit(irVar("x")),
				irDecl("x", irBin(lang.OpAdd, irVar("x"), ConstInt(4))),
				irDigit(irVar("x")),
				irReturn(irVar("acc")),
			},
			want: 15,
		},
		{
			name: "declare on miss binds in the innermost scope",
			body: []*Node{
				irDecl("acc", ConstInt(0)),
				Seq(
					irSet("obj$f", ConstInt(5)),
					irSet("obj$f", irBin(lang.OpAdd, irVar("obj$f"), ConstInt(1))),
					irSet("acc", irVar("obj$f")),
				),
				irReturn(irVar("acc")),
			},
			want: 6,
		},
		{
			name:    "declare on miss is popped with its scope",
			body:    []*Node{Seq(irSet("obj$f", ConstInt(5))), irReturn(irVar("obj$f"))},
			wantErr: `jit: exec: unbound variable "obj$f" in T.synth`,
		},
		{
			name:    "unbound variable",
			body:    []*Node{irReturn(irVar("z"))},
			wantErr: `jit: exec: unbound variable "z" in T.synth`,
		},
		{
			name: "catch variable shadows and is popped",
			body: []*Node{
				irDecl("acc", ConstInt(0)),
				irDecl("e", ConstInt(100)),
				{Kind: NTry, Name: "e", Kids: []*Node{
					Seq(&Node{Kind: NThrow, Kids: []*Node{ConstInt(7)}}),
					Seq(irSet("acc", irVar("e"))),
				}},
				irReturn(irBin(lang.OpAdd, irBin(lang.OpMul, irVar("acc"), ConstInt(1000)), irVar("e"))),
			},
			want: 7100,
		},
		{
			name: "loop slot survives shadowing in the body",
			body: []*Node{
				irDecl("acc", ConstInt(0)),
				{Kind: NFor, Name: "i", Step: 1, Kids: []*Node{ConstInt(0), ConstInt(4), Seq(
					irDigit(irVar("i")),
					irDecl("i", ConstInt(9)),
					irDigit(irVar("i")),
				)}},
				irReturn(irVar("acc")),
			},
			want: 9192939,
		},
		{
			name: "assigning the loop variable writes its slot",
			body: []*Node{
				irDecl("acc", ConstInt(0)),
				{Kind: NFor, Name: "i", Step: 1, Kids: []*Node{ConstInt(0), ConstInt(6), Seq(
					irDigit(irVar("i")),
					irSet("i", irBin(lang.OpAdd, irVar("i"), ConstInt(1))),
				)}},
				irReturn(irVar("acc")),
			},
			want: 24,
		},
		{
			name:    "loop variable is popped after the loop",
			body:    []*Node{{Kind: NFor, Name: "i", Step: 1, Kids: []*Node{ConstInt(0), ConstInt(2), Seq()}}, irReturn(irVar("i"))},
			wantErr: `jit: exec: unbound variable "i" in T.synth`,
		},
		{
			name: "a bare branch assigns the enclosing binding",
			body: []*Node{
				irDecl("x", ConstInt(0)),
				{Kind: NIf, Kids: []*Node{irBin(lang.OpGt, irVar("p"), ConstInt(0)), irSet("x", ConstInt(1))}},
				irReturn(irVar("x")),
			},
			want: 1,
		},
		{
			name: "params are bound",
			body: []*Node{irReturn(irBin(lang.OpAdd, irVar("p"), ConstInt(1)))},
			want: 42,
		},
	}
	m, _ := buildMachine(t, `class T { static void main() { return; } }`)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := emitByHand(t, m, synthFunc(tc.body...), nil)
			// Twice: the second call reuses the first call's frame.
			for round := 0; round < 2; round++ {
				v, err := c.Invoke([]vm.Value{vm.IntVal(41)})
				if tc.wantErr != "" {
					if err == nil || err.Error() != tc.wantErr {
						t.Fatalf("round %d: err = %v, want %q", round, err, tc.wantErr)
					}
				} else if err != nil || v.I != tc.want {
					t.Fatalf("round %d: got %v (err %v), want %d", round, v, err, tc.want)
				}
			}
		})
	}
}

// TestExecutorReuseAfterThrow: a call that throws out of the middle of
// nested scopes leaves nothing behind, and the next call on the same
// code sees only its own bindings.
func TestExecutorReuseAfterThrow(t *testing.T) {
	m, _ := buildMachine(t, `class T { static void main() { return; } }`)
	c := emitByHand(t, m, synthFunc(
		irDecl("x", ConstInt(5)),
		&Node{Kind: NIf, Kids: []*Node{
			irBin(lang.OpGt, irVar("p"), ConstInt(0)),
			Seq(irDecl("y", irVar("p")), Seq(irSet("q", ConstInt(1)), &Node{Kind: NThrow, Kids: []*Node{ConstInt(3)}})),
		}},
		irReturn(irVar("x")),
	), nil)
	for i, p := range []int64{1, 0, 2, 0} {
		v, err := c.Invoke([]vm.Value{vm.IntVal(p)})
		if p > 0 {
			if thr, ok := err.(*vm.Thrown); !ok || thr.Code != 3 {
				t.Fatalf("call %d: err = %v, want thrown 3", i, err)
			}
		} else if err != nil || v.I != 5 {
			t.Fatalf("call %d: got %v (err %v), want 5", i, v, err)
		}
	}
}

// recordingCompiler wraps the JIT and keeps every Compiled it returns.
type recordingCompiler struct {
	*Compiler
	out []*Compiled
}

func (r *recordingCompiler) Compile(fn *bytecode.Function, tier vm.Tier, env *vm.Machine) (vm.CompiledMethod, error) {
	cm, err := r.Compiler.Compile(fn, tier, env)
	if c, ok := cm.(*Compiled); ok {
		r.out = append(r.out, c)
	}
	return cm, err
}

// TestExecutorRecursionReentersCompiled: compiled fib calls itself
// through the machine, so one Compiled runs many nested frames at once,
// each with its own locals. Output must match the interpreter, and the
// emitted code must pass the verifier.
func TestExecutorRecursionReentersCompiled(t *testing.T) {
	const src = `
class T {
  static void main() {
    print(T.fib(12));
    print(T.fib(7));
  }
  static int fib(int n) {
    int r = n;
    if (n >= 2) {
      int a = T.fib(n - 1);
      int b = T.fib(n - 2);
      r = a + b;
    }
    return r;
  }
}`
	ref := vm.NewMachine(compileImg(t, src), vm.Config{}).Run()
	rc := &recordingCompiler{Compiler: New(profile.NewRecorder(profile.NoFlags()), coverage.NewTracker(), nil)}
	img := compileImg(t, src)
	got := vm.NewMachine(img, vm.Config{JIT: rc, CompileEager: true, CompileOnly: "T.fib"}).Run()
	if got.OutputString() != ref.OutputString() || ref.OutputString() != "144\n13\n" {
		t.Fatalf("compiled %q, interpreter %q, want \"144\\n13\\n\"", got.OutputString(), ref.OutputString())
	}
	if len(rc.out) == 0 {
		t.Fatal("fib was never compiled")
	}
	for _, c := range rc.out {
		if err := img.VerifyFunction(c.Code); err != nil {
			t.Error(err)
		}
	}
}

// callHeavySrc's work makes an instance call and a static call per
// loop trip and allocates nothing itself.
const callHeavySrc = `
class T {
  static void main() { return; }
  int work(int n) {
    int acc = 0;
    for (int k = 0; k < n; k += 1) {
      int s = this.inner(k, acc);
      acc = s + T.twice(k);
    }
    return acc;
  }
  int inner(int x, int y) { return x + y; }
  static int twice(int x) { return x + x; }
}`

// TestCompiledAllocBudget pins the compiled call path: once warm, an
// Invoke of a call-heavy method reuses pooled frames and argument
// buffers, so it allocates nothing (the program itself allocates
// nothing either).
func TestCompiledAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short test shuffling")
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m, p := buildMachine(t, callHeavySrc)
	c := compileByHand(t, m, p, "T.work")
	args := []vm.Value{m.NewObject("T"), vm.IntVal(20)}
	invoke := func() {
		if _, err := c.Invoke(args); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		invoke()
	}
	if allocs := testing.AllocsPerRun(100, invoke); allocs > 0 {
		t.Errorf("warm Invoke allocated %.0f times per call, want 0", allocs)
	}
}

// BenchmarkCompiledInvoke measures one warm Invoke of the call-heavy
// method (20 loop trips, 40 calls).
func BenchmarkCompiledInvoke(b *testing.B) {
	m, p := buildMachineCfg(b, callHeavySrc, vm.Config{MaxSteps: math.MaxInt64})
	c := compileByHand(b, m, p, "T.work")
	args := []vm.Value{m.NewObject("T"), vm.IntVal(20)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Invoke(args); err != nil {
			b.Fatal(err)
		}
	}
}

// ghostStaticHook rewrites the finished IR to read a static field the
// image does not declare, which codegen emits but linking cannot
// resolve.
type ghostStaticHook struct{}

func (ghostStaticHook) Observe(ctx *Context, ev Event) error {
	if ev.Pass == "finish" {
		ctx.Fn.Body.Kids = append(ctx.Fn.Body.Kids, &Node{Kind: NPrint, Kids: []*Node{
			{Kind: NFieldGet, Class: "T", Name: "ghost", Static: true, Ty: lang.Int},
		}})
	}
	return nil
}

// TestUnverifiableCodeCrashes: emitted code that fails the verifier is
// a compiler crash, not a silent bailout, so it shows in the output.
func TestUnverifiableCodeCrashes(t *testing.T) {
	img := compileImg(t, `class T { static void main() { print(1); } }`)
	comp := New(profile.NewRecorder(profile.NoFlags()), nil, ghostStaticHook{})
	res := vm.NewMachine(img, vm.Config{JIT: comp, CompileEager: true}).Run()
	if res.Crash == nil || res.Crash.Component != "JIT codegen" || res.Crash.FnKey != "T.main" {
		t.Fatalf("result %q, crash %+v; want a JIT codegen crash in T.main", res.OutputString(), res.Crash)
	}
}
