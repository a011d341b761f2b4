package vm

import (
	"testing"

	"repro/internal/bytecode"
)

// loopSrc is a counted loop nest in the shape that dominates the
// interpreted steps of a campaign: a loop test against a constant, an
// accumulation s = s + j and an increment by a constant.
const loopSrc = `class T { static void main() {
  int s = 0;
  for (int i = 0; i < 100; i += 1) {
    for (int j = 0; j < 1000; j += 1) { s = s + j; }
  }
  print(s);
} }`

// BenchmarkInterpreterLoop reports the interpreter's cost per step on
// loopSrc, a pure-interpreter run with the default fuel budget.
func BenchmarkInterpreterLoop(b *testing.B) {
	img := compileForBench(b, loopSrc)
	var steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := NewMachine(img, Config{}).Run()
		if len(res.Output) != 1 || res.Output[0] != "49950000" {
			b.Fatalf("output = %q", res.OutputString())
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}

// TestFusedGuards runs each comparison a load_const_cmp_jump_if_false
// fuses, taken and not, and checks that the guards were fused.
func TestFusedGuards(t *testing.T) {
	img := compileForBench(t, `class T { static void main() {
  int s = 0;
  for (int i = 0; i < 4; i += 1) {
    if (i == 2) { s = s + 1; }
    if (i != 2) { s = s + 10; }
    if (i > 2) { s = s + 100; }
    if (i >= 2) { s = s + 1000; }
    if (i <= 2) { s = s + 10000; }
  }
  print(s);
} }`)
	fused := 0
	for _, ins := range img.Entry().Code {
		if ins.Fused == bytecode.LoadConstCmpJumpIfFalse {
			fused++
		}
	}
	if fused != 5 {
		t.Errorf("%d guards fused, want 5\n%s", fused, bytecode.Disassemble(img.Entry()))
	}
	wantOutput(t, NewMachine(img, Config{}).Run(), "32131")
}
