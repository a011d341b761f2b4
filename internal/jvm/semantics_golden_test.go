package jvm

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/buginject"
	"repro/internal/bytecode"
	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/jit"
	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/vm"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestSemanticsGolden pins the observable outcome of the 20 default
// corpus seeds — output and termination status, interpreter steps,
// allocations, GC cycles and leaked monitors — under the pure
// interpreter and under forced C2 compilation. None of those seeds holds
// a string value and only one uses an array, so goldenPrograms appends
// fixed programs for string literals (monitors, ==, printing), arrays
// (loads, stores, bounds exceptions) and boxing. The default GC period
// never fires on these programs, so both modes also run with a
// collection every 64 allocations. Heap representation, GC cadence and fuel
// accounting may change only if every row stays the same. Regenerate
// with `go test ./internal/jvm -run TestSemanticsGolden -update` when a
// change is meant to alter them.
func TestSemanticsGolden(t *testing.T) {
	var b strings.Builder
	row := func(seed, mode string, res *vm.Result) {
		fmt.Fprintf(&b, "%s %s steps=%d allocs=%d gc=%d leaks=%d out=%q\n",
			seed, mode, res.Steps, res.AllocCount, res.GCCycles, res.MonitorLeaks, res.OutputString())
	}
	spec := Reference()
	type program struct {
		name string
		p    *lang.Program
	}
	var progs []program
	for _, s := range corpus.DefaultPool(20, 1) {
		progs = append(progs, program{s.Name, s.Parse()})
	}
	for _, g := range goldenPrograms {
		p, err := lang.Parse(g.src)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		progs = append(progs, program{g.name, p})
	}
	for _, s := range progs {
		p := s.p
		for _, mode := range []struct {
			name string
			opt  Options
		}{
			{"interp", Options{PureInterpreter: true}},
			{"c2", Options{ForceCompile: true}},
		} {
			r, err := Run(p, spec, mode.opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.name, mode.name, err)
			}
			row(s.name, mode.name, r.Result)
		}
		if err := lang.Check(p); err != nil {
			t.Fatal(err)
		}
		img, err := bytecode.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		row(s.name, "interp/gc64", vm.NewMachine(img, vm.Config{GCEvery: 64}).Run())
		comp := jit.New(profile.NewCounterRecorder(nil), coverage.NewTracker(), buginject.NewInjector(spec.Impl, spec.Version))
		row(s.name, "c2/gc64", vm.NewMachine(img, vm.Config{GCEvery: 64, CompileEager: true, JIT: comp}).Run())
	}
	path := filepath.Join("testdata", "semantics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotRows, wantRows := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i, w := range wantRows {
		if i >= len(gotRows) || gotRows[i] != w {
			g := "<missing>"
			if i < len(gotRows) {
				g = gotRows[i]
			}
			t.Fatalf("row %d differs:\n got %s\nwant %s", i+1, g, w)
		}
	}
	if len(gotRows) != len(wantRows) {
		t.Fatalf("got %d rows, want %d", len(gotRows), len(wantRows))
	}
}

// goldenPrograms are the fixed programs TestSemanticsGolden pins beside
// the corpus seeds: each exercises a value kind the seeds do not.
var goldenPrograms = []struct{ name, src string }{
	{"StringMonitor", `class T {
  int f;
  static void main() {
    String a = "T.class";
    int s = 0;
    for (int i = 0; i < 300; i += 1) {
      synchronized ("T.class") { s = s + i; }
      synchronized (a) { s = s + 1; }
      T t = new T();
      synchronized (t) { t.f = i; }
      s = s + t.f;
    }
    print(s);
  }
}`},
	{"StringCompare", `class T {
  int f;
  static void main() {
    String a = "T.class";
    String b = "T.class";
    String c = "other";
    print(a);
    print(a == b ? 1 : 0);
    print(a == c ? 1 : 0);
    print(a != c ? 1 : 0);
    print("lit");
    int s = 0;
    for (int i = 0; i < 200; i += 1) {
      T t = new T();
      t.f = T.pick(i % 3 == 0) == a ? 1 : 2;
      s = s + t.f;
    }
    print(s);
    print(T.pick(true) == T.pick(false) ? 1 : 0);
    print(T.pick(false));
  }
  static String pick(boolean x) {
    String r = x ? "T.class" : "other";
    return r;
  }
}`},
	{"Arrays", `class T {
  int[] data;
  static void main() {
    int[] a = new int[8];
    for (int i = 0; i < 8; i += 1) { a[i] = i * 3 - 5; }
    int s = 0;
    for (int k = 0; k < 200; k += 1) {
      int[] b = new int[4];
      b[k % 4] = a[k % 8] + k;
      s = s + b[k % 4];
      try { b[k % 6] = 1; } catch (e) { s = s + e; }
      try { s = s + a[k - 100]; } catch (e) { s = s - e; }
    }
    print(s);
    print(a[7]);
    int[] z = new int[0];
    try { print(z[0]); } catch (e) { print(e); }
    try { a[8] = 2; } catch (e) { print(e); }
    T t = new T();
    t.data = a;
    print(t.data[2]);
    print(t.data == a ? 1 : 0);
    print(a);
    int big = 2147483647;
    a[1] = big + 1;
    print(a[1]);
  }
}`},
	{"Boxing", `class T {
  Integer box;
  static void main() {
    Integer bx = Integer.valueOf(41);
    print(bx.intValue() + 1);
    print(bx);
    int s = 0;
    T t = new T();
    for (int i = 0; i < 200; i += 1) {
      Integer b = Integer.valueOf(i * 7);
      t.box = b;
      s = s + t.box.intValue() + b.intValue();
      Integer c = Integer.valueOf(s);
      s = c.intValue() % 100000;
    }
    print(s);
    print(t.box);
    print(T.twice(Integer.valueOf(-3)).intValue());
    Integer u = Integer.valueOf(5);
    Integer v = u;
    print(u == v ? 1 : 0);
    print(u == Integer.valueOf(5) ? 1 : 0);
  }
  static Integer twice(Integer x) {
    Integer r = Integer.valueOf(x.intValue() * 2);
    return r;
  }
}`},
}
