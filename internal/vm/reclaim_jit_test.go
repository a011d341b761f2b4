package vm_test

import (
	"testing"

	"repro/internal/jit"
	"repro/internal/profile"
	"repro/internal/vm"
)

// TestReclaimKeepsCompiledFrames: compiled frames are no roots of the
// collector, but reclaim must keep what they reference. work's second
// call runs C2 code whose object only that frame holds, across the
// collections its callee's allocations run.
func TestReclaimKeepsCompiledFrames(t *testing.T) {
	img := compileImage(t, `class T {
  int f;
  static T sink;
  static void main() {
    for (int k = 1; k < 4; k += 1) { print(T.work(k).f); }
  }
  static T work(int k) {
    T t = new T();
    t.f = k * 10;
    T.spin(4);
    return t;
  }
  static void spin(int n) {
    if (n > 0) {
      T u = new T();
      u.f = 99;
      T.sink = u;
      T.spin(n - 1);
    }
  }
}`)
	comp := jit.New(profile.NewRecorder(profile.NoFlags()), nil, nil)
	res := vm.NewMachine(img, vm.Config{GCEvery: 1, CompileEager: true, JIT: comp}).Run()
	if got := res.OutputString(); got != "10\n20\n30\n" {
		t.Errorf("output %q, want 10, 20, 30", got)
	}
	if res.Tiers["T.work"] != vm.TierC2 || res.GCCycles < 8 {
		t.Errorf("work ran at %s with %d collections; want C2 and at least 8", res.Tiers["T.work"], res.GCCycles)
	}
}
