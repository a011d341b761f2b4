package jvm

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/lang"
	"repro/internal/vm"
)

// TestOperandStackRootsGolden pins the collector's view of the
// interpreter's operand stack: each program holds references only on
// the stack across an allocation or a call, and runs with a collection
// every 1, 2 and 3 allocations, so a root the collector misses or a
// dead slot it keeps changes the recorded OnGC(live, freed) sequence.
// A collection runs right after its allocation, before the new cell is
// rooted anywhere, so with GCEvery 1 every cell is swept at once; the
// longer periods are the ones that let stack-held cells survive. Heap
// frees never reach program output, so only this sequence shows them.
// Regenerate with `go test ./internal/jvm -run TestOperandStackRootsGolden -update`
// only when a change is meant to alter what the collector sees.
func TestOperandStackRootsGolden(t *testing.T) {
	var b strings.Builder
	for _, g := range stackRootPrograms {
		p, err := lang.Parse(g.src)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if err := lang.Check(p); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		img, err := bytecode.Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for every := 1; every <= 3; every++ {
			var cycles []string
			onGC := func(live, freed int) { cycles = append(cycles, fmt.Sprintf("%d/%d", live, freed)) }
			res := vm.NewMachine(img, vm.Config{GCEvery: every, OnGC: onGC}).Run()
			fmt.Fprintf(&b, "%s every=%d steps=%d out=%q gc=%s\n",
				g.name, every, res.Steps, res.OutputString(), strings.Join(cycles, ","))
		}
	}
	compareGolden(t, filepath.Join("testdata", "gcroots.golden"), b.String())
}

// stackRootPrograms keep references live only on the operand stack:
// call arguments built by allocations, receivers below their
// arguments, values that cross a call into an allocating callee, and
// stack contents an exception discards. ArgsDeadInCallee's callee
// drops its arguments before allocating, so it tells whether popped
// arguments still count as roots.
var stackRootPrograms = []struct{ name, src string }{
	{"ArgsAcrossAlloc", `class A {
  int x;
  static int f(A a, A b) { return a.x + b.x; }
  static void main() {
    int s = 0;
    for (int i = 0; i < 6; i += 1) { s = s + A.f(new A(), new A()); }
    print(s);
  }
}`},
	{"ArgsDeadInCallee", `class A {
  int x;
  static int f(A a, A b) { a = new A(); b = new A(); A c = new A(); return a.x + b.x + c.x; }
  static void main() {
    int s = 0;
    for (int i = 0; i < 5; i += 1) { s = s + A.f(new A(), new A()); }
    print(s);
  }
}`},
	{"FieldsOfFresh", `class A {
  int x;
  static void main() {
    int s = 0;
    for (int i = 0; i < 5; i += 1) { s = s + new A().x + new B().y; }
    print(s);
  }
}
class B { int y; }`},
	{"ReceiverBelowArgs", `class A {
  int x;
  int m(B b, B c) { return this.x + b.y + c.y; }
  static void main() {
    int s = 0;
    for (int i = 0; i < 5; i += 1) { s = s + new A().m(new B(), new B()); }
    print(s);
  }
}
class B { int y; }`},
	{"AcrossAllocatingCall", `class A {
  int x;
  static A mk() { A t = new A(); A u = new A(); return u; }
  static int f(A a, A b, A c) { return a.x + b.x + c.x; }
  static void main() {
    int s = 0;
    for (int i = 0; i < 5; i += 1) { s = s + A.f(new A(), A.mk(), new A()); }
    print(s);
  }
}`},
	{"BoxesAndArrays", `class A {
  static int g(Integer p, Integer q, int[] r, int[] u) { return p.intValue() + q.intValue() + r[0] + u[1]; }
  static void main() {
    int s = 0;
    for (int i = 0; i < 5; i += 1) { s = s + A.g(Integer.valueOf(i), Integer.valueOf(2), new int[3], new int[4]); }
    print(s);
  }
}`},
	{"ThrowDropsStack", `class A {
  int x;
  static int boom(int k) { A t = new A(); if (k > 0) { throw 7; } return 1; }
  static int f(A a, int k) { return a.x + k; }
  static void main() {
    int s = 0;
    for (int i = 0; i < 5; i += 1) {
      try { s = s + A.f(new A(), A.boom(i % 2)); } catch (e) { A z = new A(); s = s + e; }
      s = s + A.f(new A(), 1);
    }
    print(s);
  }
}`},
	{"ReflectArgs", `class A {
  int x;
  int m(A b) { A t = new A(); return this.x + b.x; }
  static void main() {
    int s = 0;
    for (int i = 0; i < 5; i += 1) { s = s + reflect_invoke("A", "m", new A(), new A()); }
    print(s);
  }
}`},
	{"MonitorOperand", `class A {
  int x;
  static void main() {
    int s = 0;
    for (int i = 0; i < 5; i += 1) {
      synchronized (new A()) { A t = new A(); s = s + t.x + 1; }
    }
    print(s);
  }
}`},
}
