package vm

import (
	"math"
	"testing"

	"repro/internal/bytecode"
)

// stepAfterAlloc is compiled code that allocates an array of n
// elements and then steps once, reporting what that step returned.
type stepAfterAlloc struct {
	m      *Machine
	n      int64
	before error // the step before the allocation
}

func (c *stepAfterAlloc) Invoke([]Value) (Value, error) {
	c.before = c.m.Step()
	c.m.NewArray(c.n)
	return Value{}, c.m.Step()
}

// allocJIT compiles every method to a stepAfterAlloc.
type allocJIT struct{ code *stepAfterAlloc }

func (j *allocJIT) Compile(_ *bytecode.Function, _ Tier, m *Machine) (CompiledMethod, error) {
	j.code.m = m
	return j.code, nil
}

// TestStepFuelOrder pins the Step fast path's limits: when one step
// crosses both the fuel and the heap budget, the timeout wins; heap
// exhaustion surfaces at the first Step after the allocation that
// crossed the cap, from interpreted and compiled code alike; and a
// negative MaxHeapUnits never exhausts.
func TestStepFuelOrder(t *testing.T) {
	img := compileForBench(t, pairSrc)

	m := NewMachine(img, Config{MaxSteps: 5, MaxHeapUnits: 10})
	for i := 0; i < 5; i++ {
		if err := m.Step(); err != nil {
			t.Fatalf("step %d: %v", i+1, err)
		}
	}
	m.NewArray(20)
	if err := m.Step(); err != ErrTimeout {
		t.Errorf("both limits crossed: Step = %v, want ErrTimeout", err)
	}

	m = NewMachine(img, Config{MaxHeapUnits: 10})
	m.NewArray(8) // 9 units: under the cap
	if err := m.Step(); err != nil {
		t.Fatalf("under the cap: Step = %v", err)
	}
	m.NewArray(0) // 10 units: at the cap
	if err := m.Step(); err != nil {
		t.Fatalf("at the cap: Step = %v", err)
	}
	m.NewArray(0) // 11 units
	if err := m.Step(); err != ErrHeapExhausted {
		t.Errorf("over the cap: Step = %v, want ErrHeapExhausted", err)
	}

	code := &stepAfterAlloc{n: 20}
	res := NewMachine(img, Config{MaxHeapUnits: 10, CompileEager: true, JIT: &allocJIT{code}}).Run()
	if code.before != nil || !res.HeapExhausted || res.TimedOut || res.Steps != 2 {
		t.Errorf("compiled allocation: before=%v HeapExhausted=%v TimedOut=%v steps=%d, want exhaustion at step 2",
			code.before, res.HeapExhausted, res.TimedOut, res.Steps)
	}

	m = NewMachine(img, Config{MaxHeapUnits: -1})
	m.NewArray(1 << 20)
	m.Heap.Units = math.MaxInt64
	if err := m.Step(); err != nil {
		t.Errorf("uncapped heap: Step = %v, want nil", err)
	}
}

// TestLinkedFunctionState pins the per-function state behind the
// key-based API: a profile taken before a method's first call is the
// one its calls update, InvalidateCode works before any call, and a
// compile bailout still records its tier in Result.Tiers.
func TestLinkedFunctionState(t *testing.T) {
	img := compileForBench(t, `class T {
		static void main() {
			int s = 0;
			for (int i = 0; i < 100; i += 1) { s = s + T.inc(i); }
			print(s);
		}
		static int inc(int x) { return x + 1; }
		static int idle() { return 0; }
	}`)

	m := NewMachine(img, Config{})
	prof := m.Profile("T.inc")
	m.InvalidateCode("T.idle")
	res := m.Run()
	wantOutput(t, res, "5050")
	if prof.Invocations != 100 || m.Profile("T.inc") != prof {
		t.Errorf("early profile: invocations %d, same=%v; want 100, true", prof.Invocations, m.Profile("T.inc") == prof)
	}
	if m.DeoptCount("T.idle") != 1 || m.Profile("T.idle").Deopts != 1 || res.Deopts != 1 {
		t.Errorf("early InvalidateCode: DeoptCount %d, profile deopts %d, result deopts %d; want 1, 1, 1",
			m.DeoptCount("T.idle"), m.Profile("T.idle").Deopts, res.Deopts)
	}
	if tier, ok := res.Tiers["T.idle"]; !ok || tier != TierInterpreter || len(res.Tiers) != 1 {
		t.Errorf("Tiers = %v, want only T.idle at the interpreter", res.Tiers)
	}
	if m.Profile("T.nope") == m.Profile("T.nope") || m.DeoptCount("T.nope") != 0 {
		t.Errorf("a key naming no method must get a fresh, unlinked profile")
	}

	jit := &fakeJIT{}
	res = NewMachine(img, Config{JIT: jit, C1Threshold: 50, C2Threshold: 100000}).Run()
	wantOutput(t, res, "5050")
	if len(res.Tiers) != 1 || res.Tiers["T.inc"] != TierC1 {
		t.Errorf("bailout: Tiers = %v, want T.inc at C1", res.Tiers)
	}
}

// TestStaticSlots pins static storage: declared statics start at their
// zero, an undeclared static reads Value{} until written and then
// round-trips, and statics are GC roots, declared or not.
func TestStaticSlots(t *testing.T) {
	img := compileForBench(t, `class T { static int n; static T ref; static void main() { return; } }`)
	var live, freed int
	m := NewMachine(img, Config{GCEvery: 3, OnGC: func(l, f int) { live, freed = l, f }})
	if m.GetStatic("T", "n") != IntVal(0) || m.GetStatic("T", "ref") != NullVal() {
		t.Errorf("declared zeros = %v, %v", m.GetStatic("T", "n"), m.GetStatic("T", "ref"))
	}
	for _, k := range [][2]string{{"T", "ghost"}, {"U", "n"}} {
		if got := m.GetStatic(k[0], k[1]); got != (Value{}) {
			t.Errorf("undeclared %s.%s = %v, want Value{}", k[0], k[1], got)
		}
	}
	m.SetStatic("T", "n", IntVal(7))
	m.SetStatic("T", "ghost", LongVal(9))
	if m.GetStatic("T", "n") != IntVal(7) || m.GetStatic("T", "ghost") != LongVal(9) {
		t.Errorf("round trip = %v, %v", m.GetStatic("T", "n"), m.GetStatic("T", "ghost"))
	}
	if m.GetStatic("U", "ghost") != (Value{}) {
		t.Errorf("a write to T.ghost reached U.ghost")
	}

	a := m.NewObject("T")
	m.SetStatic("T", "ref", a)
	b := m.NewObject("T")
	m.SetStatic("T", "other", b)
	m.NewObject("T") // garbage; the third allocation collects
	if m.Heap.GCCycles != 1 || live != 2 || freed != 1 {
		t.Fatalf("GC cycles %d, live %d, freed %d; want 1, 2, 1", m.Heap.GCCycles, live, freed)
	}
	if m.Heap.objects[0] != a.Obj() || m.Heap.objects[1] != b.Obj() {
		t.Errorf("survivors are not the statics' objects")
	}
}
