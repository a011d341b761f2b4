package jvm

import (
	"strings"
	"testing"

	"repro/internal/buginject"
	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/vm"
)

func TestSpecNames(t *testing.T) {
	cases := map[Spec]string{
		{buginject.HotSpot, 8}:  "openjdk-8",
		{buginject.HotSpot, 23}: "openjdk-mainline",
		{buginject.OpenJ9, 17}:  "openj9-17",
		{buginject.OpenJ9, 23}:  "openj9-mainline",
	}
	for spec, want := range cases {
		if got := spec.Name(); got != want {
			t.Errorf("%v.Name() = %q, want %q", spec, got, want)
		}
	}
	if len(AllSpecs()) != 10 {
		t.Errorf("AllSpecs = %d, want 10 (LTS 8/11/17/21 + mainline, two impls)", len(AllSpecs()))
	}
}

func TestRunRejectsBadProgram(t *testing.T) {
	p := lang.MustParse(`class T { static void main() { print(x); } }`)
	if _, err := Run(p, Reference(), Options{}); err == nil {
		t.Fatal("ill-typed program must be rejected")
	}
}

func TestRunProducesProfileAndCoverage(t *testing.T) {
	cov := coverage.NewTracker()
	r, err := RunSource(corpus.MotivatingSeed, Reference(), Options{
		Flags:        profile.DefaultFlags(),
		Coverage:     cov,
		ForceCompile: true,
		Bugs:         []*buginject.Bug{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Crashed() {
		t.Fatalf("bug-free run crashed: %v", r.Result.Crash)
	}
	if r.Compiled == 0 {
		t.Error("nothing compiled under ForceCompile")
	}
	if r.OBV.Total() == 0 {
		t.Errorf("empty OBV; log:\n%s", r.Log)
	}
	if cov.Percent(coverage.C2) == 0 || cov.Percent(coverage.Runtime) == 0 {
		t.Error("coverage not recorded")
	}
}

func TestPureInterpreterHasNoJITActivity(t *testing.T) {
	r, err := RunSource(corpus.MotivatingSeed, Reference(), Options{
		Flags:           profile.DefaultFlags(),
		PureInterpreter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Compiled != 0 || r.OBV.Total() != 0 || len(r.Triggered) != 0 {
		t.Errorf("interpreter run shows JIT activity: compiled=%d obv=%v", r.Compiled, r.OBV)
	}
}

func TestVersionedBugArming(t *testing.T) {
	// The JDK-8312744 trigger program crashes 17/21/mainline but not 8/11.
	src := `
class T {
  int f;
  static void main() {
    T t = new T();
    long total = 0;
    for (int i = 0; i < 1500; i += 1) { total = total + t.foo(i); }
    print(total);
  }
  int foo(int i) {
    int acc = 0;
    for (int k = 0; k < 4; k += 1) {
      synchronized (this) { acc = acc + k + i; }
    }
    synchronized (this) { acc = acc + this.f; }
    return acc;
  }
}`
	for _, tc := range []struct {
		version int
		crash   bool
	}{{8, false}, {11, false}, {17, true}, {21, true}, {23, true}} {
		r, err := RunSource(src, Spec{buginject.HotSpot, tc.version}, Options{ForceCompile: true})
		if err != nil {
			t.Fatal(err)
		}
		if r.Crashed() != tc.crash {
			t.Errorf("jdk%d: crashed=%v, want %v (%v)", tc.version, r.Crashed(), tc.crash, r.Result.Crash)
		}
		if tc.crash && r.Result.Crash.BugID != "JDK-8312744" {
			t.Errorf("jdk%d: crash = %s, want JDK-8312744", tc.version, r.Result.Crash.BugID)
		}
	}
}

func TestDifferentialDetectsMiscompile(t *testing.T) {
	// The diffjvm example's program: RSE defect drops a live store on the
	// versions carrying Issue-18919 / JDK-8303005.
	src := `
class T {
  int f;
  static void main() {
    T t = new T();
    long total = 0;
    for (int i = 0; i < 1500; i += 1) { total = total + t.foo(i); }
    print(total);
    print(t.f);
  }
  int foo(int i) {
    int acc = 0;
    for (int k = 0; k < 4; k += 1) {
      acc = 7;
      acc = i + k;
      this.f = this.f + acc;
    }
    return acc;
  }
}`
	p := lang.MustParse(src)
	diff, err := RunDifferential(p, AllSpecs(), Options{ForceCompile: true})
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Inconsistent() {
		t.Fatal("expected divergent outputs across versions")
	}
	found := false
	for _, b := range diff.TriggeredBugs() {
		if b.ID == "Issue-18919" || b.ID == "JDK-8303005" {
			found = true
		}
	}
	if !found {
		t.Errorf("triggered set misses the RSE defects: %v", diff.TriggeredBugs())
	}
}

func TestDifferentialConsistentOnCleanProgram(t *testing.T) {
	p := lang.MustParse(`class T { static void main() { print(41 + 1); } }`)
	diff, err := RunDifferential(p, AllSpecs(), Options{ForceCompile: true})
	if err != nil {
		t.Fatal(err)
	}
	if diff.Inconsistent() {
		t.Errorf("trivial program diverges: %d groups", len(diff.Groups))
	}
	if diff.AnyCrash() != nil {
		t.Errorf("trivial program crashed: %v", diff.AnyCrash().Result.Crash)
	}
}

func TestHsErrReport(t *testing.T) {
	src := `
class T {
  int f;
  static void main() {
    T t = new T();
    long total = 0;
    for (int i = 0; i < 1500; i += 1) { total = total + t.foo(i); }
    print(total);
  }
  int foo(int i) {
    int acc = 0;
    for (int k = 0; k < 4; k += 1) {
      synchronized (this) { acc = acc + k + i; }
    }
    synchronized (this) { acc = acc + this.f; }
    return acc;
  }
}`
	r, err := RunSource(src, Reference(), Options{ForceCompile: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Crashed() {
		t.Fatal("expected crash")
	}
	rep := r.HsErr()
	for _, want := range []string{"A fatal error has been detected", "JDK-8312744", "openjdk-mainline"} {
		if !strings.Contains(rep, want) {
			t.Errorf("hs_err missing %q:\n%s", want, rep)
		}
	}
}

func TestOpenJ9TuningDiffers(t *testing.T) {
	// Same program, both implementations bug-free: outputs agree even
	// though the pipelines tune differently.
	p := lang.MustParse(corpus.MotivatingSeed)
	hs, err := Run(lang.CloneProgram(p), Spec{buginject.HotSpot, 23}, Options{ForceCompile: true, Bugs: []*buginject.Bug{}})
	if err != nil {
		t.Fatal(err)
	}
	j9, err := Run(lang.CloneProgram(p), Spec{buginject.OpenJ9, 23}, Options{ForceCompile: true, Bugs: []*buginject.Bug{}})
	if err != nil {
		t.Fatal(err)
	}
	if hs.Result.OutputString() != j9.Result.OutputString() {
		t.Errorf("impls disagree on a clean program:\n%s\nvs\n%s",
			hs.Result.OutputString(), j9.Result.OutputString())
	}
}

func TestFirstDivergence(t *testing.T) {
	mk := func(spec Spec, out string) *ExecResult {
		return &ExecResult{Spec: spec, Result: &vm.Result{Output: []string{out}}}
	}
	d := &Differential{}
	for _, r := range []*ExecResult{
		mk(Spec{buginject.HotSpot, 8}, "42"),
		mk(Spec{buginject.HotSpot, 17}, "42"),
		mk(Spec{buginject.HotSpot, 21}, "41"),
		mk(Spec{buginject.HotSpot, 23}, "42"),
	} {
		d.Add(r.Spec, r)
	}
	div := d.FirstDivergence()
	if div == nil {
		t.Fatal("inconsistent differential reported no divergence")
	}
	if div.Modal != (Spec{buginject.HotSpot, 8}) {
		t.Errorf("modal = %v, want first modal-output spec", div.Modal)
	}
	if div.Divergent != (Spec{buginject.HotSpot, 21}) || div.Index != 2 {
		t.Errorf("divergent = %v #%d, want openjdk-21 #2", div.Divergent, div.Index)
	}

	// Consistent results yield nil.
	c := &Differential{Groups: map[string][]Spec{"42": {{buginject.HotSpot, 8}}}}
	if c.FirstDivergence() != nil {
		t.Error("consistent differential reported a divergence")
	}
}

func TestFirstDivergenceModalTieBreak(t *testing.T) {
	// 1-vs-1 tie: the first result's output is modal, the second diverges.
	mk := func(spec Spec, out string) *ExecResult {
		return &ExecResult{Spec: spec, Result: &vm.Result{Output: []string{out}}}
	}
	d := &Differential{Groups: map[string][]Spec{
		"a": {{buginject.HotSpot, 8}}, "b": {{buginject.HotSpot, 17}},
	}}
	d.Results = []*ExecResult{mk(Spec{buginject.HotSpot, 8}, "a"), mk(Spec{buginject.HotSpot, 17}, "b")}
	div := d.FirstDivergence()
	if div == nil || div.Modal != (Spec{buginject.HotSpot, 8}) || div.Index != 1 {
		t.Errorf("tie-break divergence = %+v, want modal=openjdk-8 index=1", div)
	}
	// DivergentBugs breaks the tie the same way: only the second result's
	// bug changed the output. Groups is a map, so repeat to catch a
	// tie-break that depends on its iteration order.
	bug := buginject.ByID("Issue-19301")
	d.Results[0].Triggered = []*buginject.Bug{buginject.ByID("Issue-19401")}
	d.Results[1].Triggered = []*buginject.Bug{bug}
	for i := 0; i < 20; i++ {
		if got := d.DivergentBugs(); len(got) != 1 || got[0] != bug {
			t.Fatalf("tie-break divergent bugs = %v, want [%s]", got, bug.ID)
		}
	}
}
