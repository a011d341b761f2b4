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
// instance of a two-field class is the Object plus one slot slice, with
// no per-object map.
func TestNewObjectAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m := NewMachine(compileForBench(t, pairSrc), Config{})
	m.NewObject("P") // build the layout
	allocs := testing.AllocsPerRun(1000, func() {
		sinkObj = m.NewObject("P")
	})
	if allocs > 2 {
		t.Errorf("NewObject allocated %.0f times per object, budget 2", allocs)
	}
}
