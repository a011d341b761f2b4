package vm

import (
	"fmt"
	"reflect"
	"runtime"
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

// TestNewArrayAllocBudget pins int arrays of up to 16 elements as one
// Go allocation each, the elements right behind the Array.
func TestNewArrayAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m := NewMachine(compileForBench(t, pairSrc), Config{})
	for n := int64(0); n <= 16; n++ {
		var a Value
		allocs := testing.AllocsPerRun(1000, func() {
			a = m.NewArray(n)
		})
		if allocs > 1 {
			t.Errorf("NewArray(%d) allocated %.0f times per array, budget 1", n, allocs)
		}
		if got := len(a.Arr().Elems); got != int(n) {
			t.Errorf("NewArray(%d) has %d elements", n, got)
		}
	}
}

// allocBytes returns the bytes one call of alloc allocates, averaged
// over many calls; the caller keeps what alloc makes reachable.
func allocBytes(alloc func()) float64 {
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		alloc()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestHeapCellLayout pins the heap cells' sizes: the class name lives in
// the shared Layout and the monitor depth shares a word with the mark
// bit, so an Object is 24 bytes, the size of a Value, and an Array 32.
// The slots sit right behind the Object in the same allocation, so a
// box is one 24-byte allocation and a one-field object one of 48.
func TestHeapCellLayout(t *testing.T) {
	if got := unsafe.Sizeof(Object{}); got != 24 {
		t.Errorf("sizeof(Object) = %d, want 24", got)
	}
	if got := unsafe.Sizeof(Array{}); got != 32 {
		t.Errorf("sizeof(Array) = %d, want 32", got)
	}
	// The collector scans an object cell as []Value, so the layout
	// must be the Object's only pointer, in the word of Value.ref.
	ot := reflect.TypeOf(Object{})
	for i := 0; i < ot.NumField(); i++ {
		f := ot.Field(i)
		if hasPointers(f.Type) && (f.Name != "layout" || f.Offset != unsafe.Offsetof(Value{}.ref)) {
			t.Errorf("Object.%s at offset %d holds a pointer; only layout, at %d, may", f.Name, f.Offset, unsafe.Offsetof(Value{}.ref))
		}
	}
	h := NewHeap(0)
	for n := 0; n <= 20; n++ {
		l := &Layout{Class: "C"}
		for i := 0; i < n; i++ {
			l.Names = append(l.Names, fmt.Sprintf("f%d", i))
			l.Zeros = append(l.Zeros, IntVal(int64(i)))
		}
		o := h.NewObject(l)
		if o.Class() != "C" || len(o.slots()) != n {
			t.Fatalf("%d fields: class %q, %d slots", n, o.Class(), len(o.slots()))
		}
		for i := 0; i < n; i++ {
			if o.Field(l.Names[i]) != IntVal(int64(i)) {
				t.Errorf("%d fields: slot %d = %v, want its zero %d", n, i, o.slots()[i], i)
			}
		}
		if n > 0 {
			o.SetField(l.Names[n-1], IntVal(99))
			if l.Zeros[n-1] != IntVal(int64(n-1)) {
				t.Errorf("%d fields: a write reached the shared layout", n)
			}
			if o.Field(l.Names[n-1]) != IntVal(99) || (n > 1 && o.Field(l.Names[n-2]) != IntVal(int64(n-2))) {
				t.Errorf("%d fields: a write to the last slot did not land there alone", n)
			}
		}
	}
	if b := h.NewBox(7); b.Class() != "Integer" || b.layout != h.NewBox(8).layout {
		t.Errorf("boxes do not share one Integer layout")
	}
	if raceEnabled {
		return // the race detector pads allocations
	}
	one := &Layout{Class: "C", Names: []string{"f"}, Zeros: []Value{IntVal(0)}}
	cells := NewHeap(0)
	cells.objects = make([]*Object, 0, 4096)
	if got := allocBytes(func() { cells.NewBox(7) }); got != 24 {
		t.Errorf("a box allocates %.1f bytes, want 24", got)
	}
	if got := allocBytes(func() { cells.NewObject(one) }); got != 48 {
		t.Errorf("a one-field object allocates %.1f bytes, want 48", got)
	}
}

// hasPointers reports whether values of type t hold pointers.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
		reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
		return true
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	}
	return false
}
