package vm

import (
	"testing"

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
// (>7000 allocations per run). With the freelists and the pooled heap
// tables the whole run stays within the small constant budget measured
// for it — if this fails, a per-call or per-cell allocation crept back
// into the hot loop.
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
	// Machine construction and the result allocate; heap cells, frames,
	// argument buffers and the heap's tables come from pools, so a run
	// allocates the same 20 times however many calls or cells it makes.
	// 2400 calls would add >7000 allocations on their own.
	const budget = 20
	if allocs > budget {
		t.Errorf("interpreter run allocated %.0f times, budget %d — per-call allocations are back in the hot loop", allocs, budget)
	}
}

// pairSrc declares the two-field class the object-allocation budget and
// benchmark allocate.
const pairSrc = `class P { int a; P next; static void main() { return; } }`

// BenchmarkNewObject measures one instance allocation through the
// machine: the cell, its slots, and the amortized GC it drives.
func BenchmarkNewObject(b *testing.B) {
	m := NewMachine(compileForBench(b, pairSrc), Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkObj = m.NewObject("P")
	}
}

var sinkObj Value

// warmUp allocates through alloc until the heap's tables have grown to
// their steady size: past a few collections, so that reclaim hands
// handles and table space back.
func warmUp(m *Machine, alloc func()) {
	for i := 0; i < 4*m.cfg.GCEvery; i++ {
		alloc()
	}
}

// TestNewObjectAllocBudget pins the object representation's cost: an
// instance of a two-field class is a header and two slots in the
// machine's tables, so once the tables have grown, allocating one
// makes no Go allocation.
func TestNewObjectAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m := NewMachine(compileForBench(t, pairSrc), Config{})
	alloc := func() { sinkObj = m.NewObject("P") }
	warmUp(m, alloc)
	if allocs := testing.AllocsPerRun(1000, alloc); allocs > 0 {
		t.Errorf("NewObject allocated %.0f times per object, budget 0", allocs)
	}
}

// TestNewArrayAllocBudget pins int arrays of up to 16 elements at no
// Go allocation each once the tables have grown: a header plus the
// elements in the machine's element table.
func TestNewArrayAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m := NewMachine(compileForBench(t, pairSrc), Config{})
	for n := int64(0); n <= 16; n++ {
		var a Value
		alloc := func() { a = m.NewArray(n) }
		warmUp(m, alloc)
		if allocs := testing.AllocsPerRun(1000, alloc); allocs > 0 {
			t.Errorf("NewArray(%d) allocated %.0f times per array, budget 0", n, allocs)
		}
		if got := len(m.Heap.elemsOf(a.cell())); got != int(n) {
			t.Errorf("NewArray(%d) has %d elements", n, got)
		}
	}
}
