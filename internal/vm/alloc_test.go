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
