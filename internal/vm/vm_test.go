package vm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/lang"
)

// run compiles and interprets src (no JIT) and returns the result.
func run(t *testing.T, src string) *Result {
	t.Helper()
	return runCfg(t, src, Config{})
}

func runCfg(t *testing.T, src string, cfg Config) *Result {
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
	return NewMachine(img, cfg).Run()
}

func wantOutput(t *testing.T, res *Result, want ...string) {
	t.Helper()
	if res.Crash != nil {
		t.Fatalf("unexpected crash: %v", res.Crash)
	}
	if res.Exception != nil {
		t.Fatalf("unexpected exception: %v", res.Exception)
	}
	if len(res.Output) != len(want) {
		t.Fatalf("output = %v, want %v", res.Output, want)
	}
	for i := range want {
		if res.Output[i] != want[i] {
			t.Errorf("output[%d] = %q, want %q", i, res.Output[i], want[i])
		}
	}
}

func TestArithmetic(t *testing.T) {
	res := run(t, `class T { static void main() {
		print(2 + 3 * 4);
		print(10 / 3);
		print(10 % 3);
		print(7 - 10);
		print(6 & 3);
		print(6 | 3);
		print(6 ^ 3);
		print(1 << 5);
		print(-32 >> 2);
		print(~5);
		print(-(4));
	} }`)
	wantOutput(t, res, "14", "3", "1", "-3", "2", "7", "5", "32", "-8", "-6", "-4")
}

func TestInt32Wrap(t *testing.T) {
	res := run(t, `class T { static void main() {
		int big = 2147483647;
		print(big + 1);
		long lbig = 2147483647L;
		print(lbig + 1);
	} }`)
	wantOutput(t, res, "-2147483648", "2147483648")
}

func TestControlFlow(t *testing.T) {
	res := run(t, `class T { static void main() {
		int s = 0;
		for (int i = 0; i < 10; i += 1) { s = s + i; }
		print(s);
		int n = 3;
		while (n > 0) { n = n - 1; }
		print(n);
		if (s == 45) { print(1); } else { print(2); }
		boolean b = s == 45 || 1 / 0 == 0;
		print(b ? 100 : 200);
	} }`)
	wantOutput(t, res, "45", "0", "1", "100")
}

func TestShortCircuitAvoidsSideEffect(t *testing.T) {
	res := run(t, `class T {
		static int calls;
		static void main() {
			boolean a = false && T.bump();
			boolean b = true || T.bump();
			print(T.calls);
			print(a ? 1 : 0);
			print(b ? 1 : 0);
		}
		static boolean bump() { T.calls = T.calls + 1; return true; }
	}`)
	wantOutput(t, res, "0", "0", "1")
}

func TestObjectsAndFields(t *testing.T) {
	res := run(t, `class T {
		int f;
		static int sf;
		static void main() {
			T a = new T();
			T b = new T();
			a.f = 5;
			b.f = 7;
			T.sf = a.f + b.f;
			print(T.sf);
			print(a == a ? 1 : 0);
			print(a == b ? 1 : 0);
		}
	}`)
	wantOutput(t, res, "12", "1", "0")
}

func TestArrays(t *testing.T) {
	res := run(t, `class T { static void main() {
		int[] a = new int[5];
		for (int i = 0; i < 5; i += 1) { a[i] = i * i; }
		int s = 0;
		for (int i = 0; i < 5; i += 1) { s = s + a[i]; }
		print(s);
	} }`)
	wantOutput(t, res, "30")
}

func TestBoxing(t *testing.T) {
	res := run(t, `class T { static void main() {
		Integer bx = Integer.valueOf(41);
		print(bx.intValue() + 1);
	} }`)
	wantOutput(t, res, "42")
}

func TestCallsAndRecursion(t *testing.T) {
	res := run(t, `class T {
		static void main() { print(T.fib(10)); }
		static int fib(int n) {
			int r = n < 2 ? n : T.fib(n - 1) + T.fib(n - 2);
			return r;
		}
	}`)
	wantOutput(t, res, "55")
}

func TestInstanceDispatch(t *testing.T) {
	res := run(t, `class T {
		int f;
		static void main() {
			T t = new T();
			t.f = 10;
			print(t.addF(5));
		}
		int addF(int x) { return x + this.f; }
	}`)
	wantOutput(t, res, "15")
}

func TestReflection(t *testing.T) {
	res := run(t, `class T {
		int f;
		static void main() {
			T t = new T();
			t.f = 9;
			print(reflect_invoke("T", "twice", t, 4));
			print(reflect_get("T", "f", t));
		}
		int twice(int x) { return x * 2; }
	}`)
	wantOutput(t, res, "8", "9")
}

func TestExceptions(t *testing.T) {
	res := run(t, `class T { static void main() {
		try { throw 7; } catch (e) { print(e); }
		try { print(1 / 0); } catch (e) { print(e); }
		int[] a = new int[2];
		try { a[5] = 1; } catch (e) { print(e); }
		T t = new T();
		t = T.nullT();
		try { print(t.f()); } catch (e) { print(e); }
	}
	int f() { return 1; }
	static T nullT() { T x = new T(); return x; }
	}`)
	// nullT returns a real object, so the last call succeeds.
	wantOutput(t, res, "7", "-3", "-2", "1")
}

func TestUncaughtException(t *testing.T) {
	res := run(t, `class T { static void main() { throw 13; } }`)
	if res.Exception == nil || res.Exception.Code != 13 {
		t.Fatalf("Exception = %v, want code 13", res.Exception)
	}
	if !strings.Contains(res.OutputString(), "<uncaught 13>") {
		t.Errorf("OutputString = %q", res.OutputString())
	}
}

func TestExceptionUnwindsCalls(t *testing.T) {
	res := run(t, `class T {
		static void main() {
			try { T.deep(3); } catch (e) { print(e); }
		}
		static void deep(int n) {
			if (n == 0) { throw 99; }
			T.deep(n - 1);
		}
	}`)
	wantOutput(t, res, "99")
}

func TestSynchronizedBlocksAndUnwinding(t *testing.T) {
	res := run(t, `class T {
		static void main() {
			T t = new T();
			synchronized (t) {
				synchronized (t) {
					print(1);
				}
			}
			try {
				synchronized (t) { throw 3; }
			} catch (e) { print(e); }
			print(2);
		}
	}`)
	wantOutput(t, res, "1", "3", "2")
	if res.MonitorLeaks != 0 {
		t.Errorf("MonitorLeaks = %d, want 0", res.MonitorLeaks)
	}
}

func TestSynchronizedMethodReleasesOnThrow(t *testing.T) {
	res := run(t, `class T {
		static void main() {
			T t = new T();
			try { t.boom(); } catch (e) { print(e); }
		}
		synchronized void boom() { throw 11; }
	}`)
	wantOutput(t, res, "11")
	if res.MonitorLeaks != 0 {
		t.Errorf("MonitorLeaks = %d, want 0", res.MonitorLeaks)
	}
}

func TestStringMonitorInterning(t *testing.T) {
	res := run(t, `class T { static void main() {
		synchronized ("lock") { synchronized ("lock") { print(1); } }
	} }`)
	wantOutput(t, res, "1")
	if res.MonitorLeaks != 0 {
		t.Errorf("MonitorLeaks = %d", res.MonitorLeaks)
	}
}

func TestTimeout(t *testing.T) {
	res := runCfg(t, `class T { static void main() {
		int x = 0;
		while (x < 2) { x = x * 1; }
		print(x);
	} }`, Config{MaxSteps: 10_000})
	if !res.TimedOut {
		t.Fatalf("want timeout, got %+v", res)
	}
}

func TestGCCollectsGarbage(t *testing.T) {
	res := runCfg(t, `class T {
		int f;
		static void main() {
			int s = 0;
			for (int i = 0; i < 10000; i += 1) {
				T t = new T();
				t.f = i;
				s = s + t.f;
			}
			print(s);
		}
	}`, Config{GCEvery: 512})
	wantOutput(t, res, "49995000")
	if res.GCCycles == 0 {
		t.Error("GC never ran")
	}
	if res.AllocCount < 10000 {
		t.Errorf("AllocCount = %d, want >= 10000", res.AllocCount)
	}
}

func TestProfileCountsHotness(t *testing.T) {
	p, err := lang.Parse(`class T {
		static void main() {
			int s = 0;
			for (int i = 0; i < 1000; i += 1) { s = s + T.inc(i); }
			print(s);
		}
		static int inc(int x) { return x + 1; }
	}`)
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
	m := NewMachine(img, Config{})
	res := m.Run()
	if res.Crash != nil || res.Exception != nil {
		t.Fatalf("bad result: %+v", res)
	}
	prof := m.Profile("T.inc")
	if prof.Invocations != 1000 {
		t.Errorf("T.inc invocations = %d, want 1000", prof.Invocations)
	}
	mainProf := m.Profile("T.main")
	if mainProf.Backedges < 900 {
		t.Errorf("T.main backedges = %d, want ~1000", mainProf.Backedges)
	}
	if prof.Hotness() < 1000 {
		t.Errorf("Hotness = %d", prof.Hotness())
	}
}

func TestDeterministicOutput(t *testing.T) {
	src := `class T { static void main() {
		int s = 0;
		for (int i = 0; i < 500; i += 1) { s = s ^ i * 31; }
		print(s);
	} }`
	a := run(t, src).OutputString()
	b := run(t, src).OutputString()
	if a != b {
		t.Errorf("non-deterministic: %q vs %q", a, b)
	}
}

func TestValueHelpers(t *testing.T) {
	if IntVal(1<<40).I != 0 {
		// int32 truncation of 2^40 is 0
		t.Errorf("IntVal should truncate to 32 bits, got %d", IntVal(1<<40).I)
	}
	if LongVal(1<<40).I != 1<<40 {
		t.Error("LongVal should not truncate")
	}
	if !BoolVal(true).Bool() || BoolVal(false).Bool() {
		t.Error("BoolVal broken")
	}
	m := NewMachine(compileForBench(t, pairSrc), Config{})
	if m.format(NullVal()) != "null" {
		t.Error("null renders wrong")
	}
	o, p := m.NewObject("P"), m.NewObject("P")
	if !SameRef(o, o) || SameRef(o, p) {
		t.Error("SameRef should match identical objects only")
	}
	if SameRef(o, NullVal()) {
		t.Error("SameRef object vs null")
	}
	if !SameRef(NullVal(), NullVal()) {
		t.Error("null == null")
	}
}

// TestHeapMarkSweep pins the collector's counts: a cell the roots
// reach, directly or through a field, stays listed; the rest are freed
// once; and reclaim, run after, keeps the survivors' fields and
// elements where their handles find them.
func TestHeapMarkSweep(t *testing.T) {
	h := NewHeap(0)
	t1 := h.addLayout(&Layout{Class: "T"})
	a := h.NewObject(h.addLayout(&Layout{Class: "T", Names: []string{"x"}, Zeros: []Value{NullVal()}}))
	b := h.NewObject(t1)
	h.SetField(a, "x", refVal(KObj, b))
	h.NewObject(t1) // garbage
	h.NewArray(5)   // garbage
	arr := h.NewArray(3)
	h.elemsOf(arr)[2] = 42
	roots := []Value{refVal(KObj, a), refVal(KArr, arr)}
	live, freed := h.Collect(roots)
	if freed != 2 || live != 3 {
		t.Errorf("live, freed = %d, %d; want 3, 2", live, freed)
	}
	if live, freed := h.Collect(roots); freed != 0 || live != 3 {
		t.Errorf("second cycle: live, freed = %d, %d; want 3, 0", live, freed)
	}
	h.reclaim(roots)
	if len(h.free) != 2 || len(h.elems) != 4 || h.elemsOf(arr)[2] != 42 || h.Field(a, "x") != refVal(KObj, b) {
		t.Errorf("after reclaim: %d free handles, elems %v, a.x %v", len(h.free), h.elems, h.Field(a, "x"))
	}
	if c := h.NewObject(t1); c != 3 && c != 2 {
		t.Errorf("new cell got handle %d, want a reclaimed one", c)
	}
}

// TestNewObjectSharedLayout: objects of one class share the machine's
// field layout but never their slots.
func TestNewObjectSharedLayout(t *testing.T) {
	img := compileForBench(t, `class T { int n; T next; static int s; static void main() { return; } }`)
	m := NewMachine(img, Config{})
	h := m.Heap
	a, b := m.NewObject("T").cell(), m.NewObject("T").cell()
	if h.cells[a].layout != h.cells[b].layout {
		t.Errorf("objects of one class got different layouts")
	}
	if got := h.layouts[h.cells[a].layout].Names; !reflect.DeepEqual(got, []string{"n", "next"}) {
		t.Fatalf("layout = %v, want [n next] (statics excluded)", got)
	}
	if h.Field(a, "n") != IntVal(0) || h.Field(a, "next") != NullVal() {
		t.Fatalf("zero fields = %v, %v", h.Field(a, "n"), h.Field(a, "next"))
	}
	h.SetField(a, "n", IntVal(5))
	if h.Field(a, "n") != IntVal(5) {
		t.Errorf("write not readable: %v", h.Field(a, "n"))
	}
	if h.Field(b, "n") != IntVal(0) {
		t.Errorf("objects share slots")
	}
	if u := m.NewObject("Unknown").cell(); h.cells[u].n != 0 || h.layouts[h.cells[u].layout].extra != nil {
		t.Errorf("unknown class got fields %d %v", h.cells[u].n, h.layouts[h.cells[u].layout].extra)
	}
}

// TestNewObjectDuplicateField: a name declared twice is one field whose
// zero is the last declaration's, as with the old per-object map.
func TestNewObjectDuplicateField(t *testing.T) {
	img := compileForBench(t, `class T { int f; T f; static void main() { return; } }`)
	m := NewMachine(img, Config{})
	o := m.NewObject("T").cell()
	if m.Heap.cells[o].n != 1 || m.Heap.Field(o, "f") != NullVal() {
		t.Fatalf("%d slots, f = %v; want one null field", m.Heap.cells[o].n, m.Heap.Field(o, "f"))
	}
}

// TestObjectUndeclaredField: a name outside the layout behaves like a
// map entry — zero until written, readable after, and traced by the
// collector and by reclaim — for class instances and for monitor
// cells, whose layouts name a class but declare no fields.
func TestObjectUndeclaredField(t *testing.T) {
	img := compileForBench(t, `class T { int n; static void main() { return; } }`)
	m := NewMachine(img, Config{})
	h := m.Heap
	objs := map[string]int32{
		"instance":       m.NewObject("T").cell(),
		"string monitor": m.monitorOf(m.strVal("lock")),
		"class monitor":  m.classMonitor("T"),
	}
	for _, name := range []string{"instance", "string monitor", "class monitor"} {
		o := objs[name]
		if got := h.Field(o, "ghost"); got != (Value{}) {
			t.Errorf("%s: undeclared read = %v, want Value{}", name, got)
		}
		target := m.NewObject("T")
		garbage := m.NewObject("T")
		h.SetField(o, "ghost", target)
		if got := h.Field(o, "ghost"); got != target {
			t.Errorf("%s: undeclared write not readable: %v", name, got)
		}
		h.SetField(garbage.cell(), "n", IntVal(1))
		if name == "instance" {
			// The instance is listed; the monitor cells never are.
			if _, freed := h.Collect([]Value{refVal(KObj, o)}); freed != 1 {
				t.Errorf("%s: freed %d; want only the garbage object", name, freed)
			}
		}
		var roots []Value
		for _, o := range objs {
			roots = append(roots, refVal(KObj, o))
		}
		h.reclaim(roots)
		if h.cells[target.cell()].flags&freeCell != 0 || h.cells[garbage.cell()].flags&freeCell == 0 {
			t.Errorf("%s: reclaim freed the referenced object or kept the garbage", name)
		}
	}
	if n := h.Field(objs["instance"], "n"); n != IntVal(0) {
		t.Errorf("declared field disturbed by undeclared write: %v", n)
	}
	// The undeclared fields went to object-private layouts: the shared
	// ones, and fresh objects built from them, hold none.
	shared := m.fieldLayout("T")
	if h.layouts[shared].extra != nil || h.cells[objs["instance"]].layout == shared || h.classOf(objs["instance"]) != "T" {
		t.Errorf("undeclared write reached the shared layout of T")
	}
	if fresh := m.NewObject("T").cell(); h.Field(fresh, "ghost") != (Value{}) || h.Field(fresh, "n") != IntVal(0) {
		t.Errorf("fresh object sees another object's undeclared field")
	}
	if stringLayout.extra != nil || h.Field(m.monitorOf(m.strVal("other")), "ghost") != (Value{}) {
		t.Errorf("undeclared write reached the shared String layout")
	}
}

func TestOutputStringFormat(t *testing.T) {
	cases := []struct {
		r    Result
		want string
	}{
		{Result{}, ""},
		{Result{Output: []string{"1", "x"}}, "1\nx\n"},
		{Result{Output: []string{"7"}, Crash: &Crash{BugID: "JDK-1"}, MonitorLeaks: 2}, "7\n<crash JDK-1><monitor-leak 2>"},
		{Result{Exception: &Thrown{Code: -13}}, "<uncaught -13>"},
		{Result{Output: []string{""}, TimedOut: true}, "\n<timeout>"},
		{Result{HeapExhausted: true, MonitorLeaks: 1}, "<heap-exhausted><monitor-leak 1>"},
	}
	for _, c := range cases {
		if got := c.r.OutputString(); got != c.want {
			t.Errorf("OutputString = %q, want %q", got, c.want)
		}
	}
}

// fakeJIT counts compile requests and returns a bailout so execution
// stays interpreted (tier-policy tests need no real compiler).
type fakeJIT struct{ compiled []string }

func (f *fakeJIT) Compile(fn *bytecode.Function, tier Tier, m *Machine) (CompiledMethod, error) {
	f.compiled = append(f.compiled, fn.Key()+"@"+tier.String())
	return nil, errBailout
}

var errBailout = fmt.Errorf("bailout")

func TestCompileEagerPolicy(t *testing.T) {
	p, _ := lang.Parse(`class T {
		static void main() { print(T.one()); }
		static int one() { return 1; }
	}`)
	if err := lang.Check(p); err != nil {
		t.Fatal(err)
	}
	img, _ := bytecode.Compile(p)
	jit := &fakeJIT{}
	res := NewMachine(img, Config{JIT: jit, CompileEager: true}).Run()
	if res.Crash != nil {
		t.Fatal(res.Crash)
	}
	// -Xcomp tiers through C1 on the first invocation of every method.
	want := map[string]bool{"T.main@C1": true, "T.one@C1": true}
	for _, k := range jit.compiled {
		delete(want, k)
	}
	if len(want) != 0 {
		t.Errorf("missing compiles: %v (got %v)", want, jit.compiled)
	}
}

func TestCompileEagerTiersToC2(t *testing.T) {
	p, _ := lang.Parse(`class T {
		static void main() { print(T.one() + T.one()); }
		static int one() { return 1; }
	}`)
	if err := lang.Check(p); err != nil {
		t.Fatal(err)
	}
	img, _ := bytecode.Compile(p)
	jit := &fakeJIT{}
	res := NewMachine(img, Config{JIT: jit, CompileEager: true}).Run()
	if res.Crash != nil {
		t.Fatal(res.Crash)
	}
	// T.one is invoked twice: C1 on the first call, C2 on the second.
	want := []string{"T.one@C1", "T.one@C2"}
	got := map[string]bool{}
	for _, k := range jit.compiled {
		got[k] = true
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing %s (got %v)", w, jit.compiled)
		}
	}
}

func TestCompileOnlyPolicy(t *testing.T) {
	p, _ := lang.Parse(`class T {
		static void main() { print(T.one() + T.two()); }
		static int one() { return 1; }
		static int two() { return 2; }
	}`)
	if err := lang.Check(p); err != nil {
		t.Fatal(err)
	}
	img, _ := bytecode.Compile(p)
	jit := &fakeJIT{}
	res := NewMachine(img, Config{JIT: jit, CompileEager: true, CompileOnly: "T.two"}).Run()
	if res.Crash != nil {
		t.Fatal(res.Crash)
	}
	if len(jit.compiled) != 1 || jit.compiled[0] != "T.two@C1" {
		t.Errorf("compileonly violated: %v", jit.compiled)
	}
}

func TestTieredThresholdPolicy(t *testing.T) {
	p, _ := lang.Parse(`class T {
		static void main() {
			long s = 0;
			for (int i = 0; i < 400; i += 1) { s = s + T.inc(i); }
			print(s);
		}
		static int inc(int x) { return x + 1; }
	}`)
	if err := lang.Check(p); err != nil {
		t.Fatal(err)
	}
	img, _ := bytecode.Compile(p)
	jit := &fakeJIT{}
	res := NewMachine(img, Config{JIT: jit, C1Threshold: 50, C2Threshold: 100000}).Run()
	if res.Crash != nil {
		t.Fatal(res.Crash)
	}
	// inc crosses C1 at 50 invocations; a bailout records the attempt
	// once (the machine does not retry every call).
	c1 := 0
	for _, k := range jit.compiled {
		if k == "T.inc@C1" {
			c1++
		}
	}
	if c1 != 1 {
		t.Errorf("T.inc C1 compile attempts = %d, want 1 (got %v)", c1, jit.compiled)
	}
}
