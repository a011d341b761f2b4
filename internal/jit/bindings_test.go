package jit

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/coverage"
	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/vm"
)

// linearScopes is the executor's earlier variable environment, kept as
// the reference the binding table must match: a name/value stack with
// scope marks, looked up by scanning names from the top.
type linearScopes struct {
	names []string
	vals  []vm.Value
	marks []int
}

func (s *linearScopes) push() { s.marks = append(s.marks, len(s.names)) }

func (s *linearScopes) pop() {
	m := s.marks[len(s.marks)-1]
	s.marks = s.marks[:len(s.marks)-1]
	s.names = s.names[:m]
	s.vals = s.vals[:m]
}

func (s *linearScopes) declare(name string, v vm.Value) {
	s.names = append(s.names, name)
	s.vals = append(s.vals, v)
}

func (s *linearScopes) get(name string) (vm.Value, bool) {
	for i := len(s.names) - 1; i >= 0; i-- {
		if s.names[i] == name {
			return s.vals[i], true
		}
	}
	return vm.Value{}, false
}

func (s *linearScopes) set(name string, v vm.Value) bool {
	for i := len(s.names) - 1; i >= 0; i-- {
		if s.names[i] == name {
			s.vals[i] = v
			return true
		}
	}
	return false
}

// TestBindingsMatchLinearScan drives the binding table and the linear
// scan through the same random push/pop/declare/set/get sequences over
// names that shadow each other, and requires every lookup to agree. A
// sequence may stop with scopes still open (an exception unwinding out
// of a scope); the table is then reset and reused for the next one.
func TestBindingsMatchLinearScan(t *testing.T) {
	names := []string{"x", "y", "obj$f", "$inl1_x", "$inl2_x"}
	rng := rand.New(rand.NewSource(1))
	b := &bindings{}
	b.reset(len(names))
	for trial := 0; trial < 300; trial++ {
		ref := &linearScopes{}
		ref.push()
		b.push()
		steps := rng.Intn(400)
		for step := 0; step < steps; step++ {
			id := int32(rng.Intn(len(names)))
			name := names[id]
			val := vm.IntVal(int64(trial*1000 + step))
			switch rng.Intn(6) {
			case 0:
				ref.push()
				b.push()
			case 1:
				if len(ref.marks) > 1 {
					ref.pop()
					b.pop()
				}
			case 2:
				ref.declare(name, val)
				b.declare(id, val)
			case 3: // NAssignVar: set, declaring on a miss
				gotOK, wantOK := b.set(id, val), ref.set(name, val)
				if gotOK != wantOK {
					t.Fatalf("trial %d step %d: set(%s) hit = %v, want %v", trial, step, name, gotOK, wantOK)
				}
				if !wantOK {
					ref.declare(name, val)
					b.declare(id, val)
				}
			case 4: // NFor: the loop variable's slot is the last one declared
				ref.declare(name, val)
				b.declare(id, val)
				if len(b.vals) != len(ref.vals) {
					t.Fatalf("trial %d step %d: %d slots, want %d", trial, step, len(b.vals), len(ref.vals))
				}
				slot := len(b.vals) - 1
				b.vals[slot] = vm.IntVal(b.vals[slot].I + 1)
				ref.vals[slot] = vm.IntVal(ref.vals[slot].I + 1)
			case 5:
				ref.set(name, val)
				b.set(id, val)
			}
			for id, name := range names {
				got, gotOK := b.get(int32(id))
				want, wantOK := ref.get(name)
				if gotOK != wantOK || got != want {
					t.Fatalf("trial %d step %d: get(%s) = %v,%v want %v,%v", trial, step, name, got, gotOK, want, wantOK)
				}
			}
		}
		b.reset(len(names))
		assertTableEmpty(t, b)
	}
}

// assertTableEmpty checks a reset table binds nothing and holds no slots.
func assertTableEmpty(t *testing.T, b *bindings) {
	t.Helper()
	if len(b.ids) != 0 || len(b.vals) != 0 || len(b.prev) != 0 || len(b.marks) != 0 {
		t.Fatalf("reset table keeps %d slots, %d marks", len(b.ids), len(b.marks))
	}
	for id, s := range b.cur {
		if s != -1 {
			t.Fatalf("reset table still binds variable %d to slot %d", id, s)
		}
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
// each scoping rule the binding table must keep from the linear scan.
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
			name: "params are bound",
			body: []*Node{irReturn(irBin(lang.OpAdd, irVar("p"), ConstInt(1)))},
			want: 42,
		},
	}
	m, _ := buildMachine(t, `class T { static void main() { return; } }`)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &Compiled{F: synthFunc(tc.body...), Env: m}
			// Twice: the second call reuses the first call's table.
			for round := 0; round < 2; round++ {
				v, err := c.Invoke([]vm.Value{vm.IntVal(41)})
				if tc.wantErr != "" {
					if err == nil || err.Error() != tc.wantErr {
						t.Fatalf("round %d: err = %v, want %q", round, err, tc.wantErr)
					}
				} else if err != nil || v.I != tc.want {
					t.Fatalf("round %d: got %v (err %v), want %d", round, v, err, tc.want)
				}
				assertFreelistReset(t, c)
			}
		})
	}
}

// assertFreelistReset checks that every table parked on c's freelist is
// empty — nothing a finished call bound can leak into the next one.
func assertFreelistReset(t *testing.T, c *Compiled) {
	t.Helper()
	if len(c.tables) == 0 {
		t.Fatal("no binding table returned to the freelist")
	}
	for _, b := range c.tables {
		assertTableEmpty(t, b)
	}
}

// TestExecutorReuseAfterThrow: a call that throws out of the middle of
// nested scopes must hand back a clean table, and the next call on it
// must see only its own bindings.
func TestExecutorReuseAfterThrow(t *testing.T) {
	m, _ := buildMachine(t, `class T { static void main() { return; } }`)
	c := &Compiled{F: synthFunc(
		irDecl("x", ConstInt(5)),
		&Node{Kind: NIf, Kids: []*Node{
			irBin(lang.OpGt, irVar("p"), ConstInt(0)),
			Seq(irDecl("y", irVar("p")), Seq(irSet("q", ConstInt(1)), &Node{Kind: NThrow, Kids: []*Node{ConstInt(3)}})),
		}},
		irReturn(irVar("x")),
	), Env: m}
	for i, p := range []int64{1, 0, 2, 0} {
		v, err := c.Invoke([]vm.Value{vm.IntVal(p)})
		if p > 0 {
			if thr, ok := err.(*vm.Thrown); !ok || thr.Code != 3 {
				t.Fatalf("call %d: err = %v, want thrown 3", i, err)
			}
		} else if err != nil || v.I != 5 {
			t.Fatalf("call %d: got %v (err %v), want 5", i, v, err)
		}
		if len(c.tables) != 1 {
			t.Fatalf("call %d: %d tables on the freelist, want 1", i, len(c.tables))
		}
		assertFreelistReset(t, c)
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
// through Env.Call, so one Compiled runs many nested Invokes, each on
// its own table from the freelist. Output must match the interpreter.
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
	got := vm.NewMachine(compileImg(t, src), vm.Config{JIT: rc, CompileEager: true, CompileOnly: "T.fib"}).Run()
	if got.OutputString() != ref.OutputString() || ref.OutputString() != "144\n13\n" {
		t.Fatalf("compiled %q, interpreter %q, want \"144\\n13\\n\"", got.OutputString(), ref.OutputString())
	}
	if len(rc.out) == 0 {
		t.Fatal("fib was never compiled")
	}
	last := rc.out[len(rc.out)-1]
	if len(last.tables) < 2 {
		t.Errorf("recursive Compiled holds %d tables, want one per live recursion level (>= 2)", len(last.tables))
	}
	assertFreelistReset(t, last)
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
// Invoke of a call-heavy method reuses its binding table and argument
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
