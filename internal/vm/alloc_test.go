package vm

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/bytecode"
	"repro/internal/lang"
)

// callHeavySrc is the interpreter-allocation workload: a hot loop making
// nested calls (frames), passing arguments (arg buffers), boxing, and
// allocating enough to trigger GC root scans — every allocation site the
// frame/arg reuse machinery targets.
const callHeavySrc = `
class T {
  int f;
  static void main() {
    T t = new T();
    long total = 0;
    for (int i = 0; i < 400; i += 1) {
      total = total + t.outer(i, i + 1);
    }
    print(total);
  }
  int outer(int a, int b) {
    return this.inner(a) + this.inner(b);
  }
  int inner(int x) {
    int acc = 0;
    for (int k = 0; k < 3; k += 1) { acc = acc + x + k; }
    return acc;
  }
}`

func compileForBench(tb testing.TB, src string) *bytecode.Image {
	tb.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	if err := lang.Check(p); err != nil {
		tb.Fatal(err)
	}
	img, err := bytecode.Compile(p)
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

// BenchmarkInterpretCallHeavy measures the pure-interpreter hot loop on
// the call-heavy workload. allocs/op is the number this PR's frame and
// argument-buffer reuse drives down; TestInterpreterAllocBudget pins it.
func BenchmarkInterpretCallHeavy(b *testing.B) {
	img := compileForBench(b, callHeavySrc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := NewMachine(img, Config{}).Run()
		if res.Crash != nil || res.Exception != nil {
			b.Fatalf("bad result: %+v", res)
		}
	}
}

// TestInterpreterAllocBudget pins the interpreter's allocation behavior:
// the call-heavy workload makes ~2400 calls, and before frame reuse each
// one allocated a frame plus a locals slice plus an argument buffer
// (>7000 allocations per run). With the freelists the whole run must
// stay within a small constant budget — if this fails, a per-call
// allocation crept back into the hot loop.
func TestInterpreterAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short test shuffling")
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	img := compileForBench(t, callHeavySrc)
	var out *Result
	allocs := testing.AllocsPerRun(5, func() {
		out = NewMachine(img, Config{}).Run()
	})
	if out.Crash != nil || out.Exception != nil {
		t.Fatalf("bad result: %+v", out)
	}
	if len(out.Output) != 1 || out.Output[0] != "482400" {
		t.Fatalf("output = %v, want [482400]", out.Output)
	}
	// Machine construction + heap objects + GC bookkeeping legitimately
	// allocate; per-call frame/locals/args churn must not. 2400 calls
	// would add >7000 allocations on their own.
	const budget = 800
	if allocs > budget {
		t.Errorf("interpreter run allocated %.0f times, budget %d — per-call allocations are back in the hot loop", allocs, budget)
	}
}

// pairSrc declares the two-field class the object-allocation budget and
// benchmark allocate.
const pairSrc = `class P { int a; P next; static void main() { return; } }`

// BenchmarkNewObject measures one instance allocation through the
// machine: the object, its slots, and the amortized GC it drives.
func BenchmarkNewObject(b *testing.B) {
	m := NewMachine(compileForBench(b, pairSrc), Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkObj = m.NewObject("P")
	}
}

var sinkObj Value

// TestNewObjectAllocBudget pins the object representation's cost: an
// instance of a two-field class is one Go allocation, the Object with
// its slots right behind it, and no per-object map.
func TestNewObjectAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m := NewMachine(compileForBench(t, pairSrc), Config{})
	m.NewObject("P") // build the layout
	allocs := testing.AllocsPerRun(1000, func() {
		sinkObj = m.NewObject("P")
	})
	if allocs > 1 {
		t.Errorf("NewObject allocated %.0f times per object, budget 1", allocs)
	}
}

// TestHeapCellLayout pins the heap cells' sizes: the class name lives in
// the shared Layout and the monitor depth shares a word with the mark
// bit, so an Object is 56 bytes and an Array 32. Objects with up to
// four slots get them in the same allocation.
func TestHeapCellLayout(t *testing.T) {
	if got := unsafe.Sizeof(Object{}); got != 56 {
		t.Errorf("sizeof(Object) = %d, want 56", got)
	}
	if got := unsafe.Sizeof(Array{}); got != 32 {
		t.Errorf("sizeof(Array) = %d, want 32", got)
	}
	h := NewHeap(0)
	for n := 0; n <= 6; n++ {
		l := &Layout{Class: "C"}
		for i := 0; i < n; i++ {
			l.Names = append(l.Names, fmt.Sprintf("f%d", i))
			l.Zeros = append(l.Zeros, IntVal(int64(i)))
		}
		o := h.NewObject(l)
		if o.Class() != "C" || len(o.slots) != n {
			t.Fatalf("%d fields: class %q, %d slots", n, o.Class(), len(o.slots))
		}
		for i := 0; i < n; i++ {
			if o.Field(l.Names[i]) != IntVal(int64(i)) {
				t.Errorf("%d fields: slot %d = %v, want its zero %d", n, i, o.slots[i], i)
			}
		}
		if n > 0 {
			o.SetField(l.Names[n-1], IntVal(99))
			if l.Zeros[n-1] != IntVal(int64(n-1)) {
				t.Errorf("%d fields: a write reached the shared layout", n)
			}
		}
	}
	if b := h.NewBox(7); b.Class() != "Integer" || b.layout != h.NewBox(8).layout {
		t.Errorf("boxes do not share one Integer layout")
	}
}
