package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/buginject"
	"repro/internal/corpus"
	"repro/internal/jvm"
	"repro/internal/lang"
	"repro/internal/profile"
)

func seedProgram(t *testing.T) *lang.Program {
	t.Helper()
	p, err := lang.Parse(corpus.MotivatingSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := lang.Check(p); err != nil {
		t.Fatal(err)
	}
	return p
}

// locateWorkStmt returns the location of the first statement inside
// T.foo (a hot-method statement, the natural MP).
func locateWorkStmt(t *testing.T, p *lang.Program) *lang.Location {
	t.Helper()
	for _, loc := range lang.Statements(p) {
		if loc.Method.Name == "foo" {
			if _, ok := loc.Stmt.(*lang.VarDecl); ok {
				return loc
			}
		}
	}
	t.Fatal("no mutation point in T.foo")
	return nil
}

func TestAllMutatorsProduceValidPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range AllMutators() {
		t.Run(m.Name(), func(t *testing.T) {
			applied := false
			for attempt := 0; attempt < 8 && !applied; attempt++ {
				p := seedProgram(t)
				loc := locateWorkStmt(t, p)
				if !m.Applicable(loc) {
					// Build applicability: LockCoarsening needs a sync
					// around the MP first.
					if m.Name() == "LockCoarsening-evoke" {
						le := &LockEliminationEvoke{}
						mp, err := le.Apply(p, loc, rng)
						if err != nil {
							t.Fatal(err)
						}
						if err := lang.Check(p); err != nil {
							t.Fatal(err)
						}
						loc = mp.Locate(p)
						if loc == nil || !m.Applicable(loc) {
							t.Fatal("LockCoarsening not applicable after LockElimination")
						}
					} else {
						t.Fatalf("mutator not applicable to seed MP")
					}
				}
				mp, err := m.Apply(p, loc, rng)
				if err != nil {
					continue
				}
				if err := lang.Check(p); err != nil {
					t.Fatalf("mutant ill-typed: %v\n%s", err, lang.Format(p))
				}
				if mp.Locate(p) == nil {
					t.Fatalf("new MP %d not locatable", mp.ID)
				}
				// The mutant must still run on a bug-free JVM.
				r, err := jvm.Run(p, jvm.Reference(), jvm.Options{
					ForceCompile: true,
					Bugs:         []*buginject.Bug{},
					MaxSteps:     5_000_000,
				})
				if err != nil {
					t.Fatalf("mutant rejected: %v\n%s", err, lang.Format(p))
				}
				if r.Crashed() {
					t.Fatalf("mutant crashed a bug-free JVM: %v\n%s", r.Result.Crash, lang.Format(p))
				}
				applied = true
			}
			if !applied {
				t.Fatal("mutator never applied successfully")
			}
		})
	}
}

func TestMutantsAgreeAcrossBugFreeEngines(t *testing.T) {
	// Differential sanity: random mutants must produce identical output
	// on the pure interpreter and the bug-free JIT. This is the
	// correctness backstop for the whole mutate+optimize stack.
	rng := rand.New(rand.NewSource(11))
	muts := AllMutators()
	for trial := 0; trial < 6; trial++ {
		p := seedProgram(t)
		loc := locateWorkStmt(t, p)
		mp := MP{ID: loc.Stmt.ID()}
		for step := 0; step < 6; step++ {
			l := mp.Locate(p)
			if l == nil {
				t.Fatal("MP lost")
			}
			m := muts[rng.Intn(len(muts))]
			if !m.Applicable(l) {
				continue
			}
			nmp, err := m.Apply(p, l, rng)
			if err != nil {
				continue
			}
			if err := lang.Check(p); err != nil {
				t.Fatalf("trial %d step %d (%s): %v", trial, step, m.Name(), err)
			}
			mp = nmp
		}
		ref, err := jvm.Run(lang.CloneProgram(p), jvm.Reference(), jvm.Options{
			PureInterpreter: true, MaxSteps: 20_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := jvm.Run(lang.CloneProgram(p), jvm.Reference(), jvm.Options{
			ForceCompile: true, Bugs: []*buginject.Bug{}, MaxSteps: 20_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref.Result.TimedOut || opt.Result.TimedOut {
			continue
		}
		if ref.Result.OutputString() != opt.Result.OutputString() {
			t.Fatalf("trial %d: engines disagree:\n-- interp --\n%s\n-- jit --\n%s\n-- program --\n%s",
				trial, ref.Result.OutputString(), opt.Result.OutputString(), lang.Format(p))
		}
	}
}

func TestFuzzSeedGuidedRun(t *testing.T) {
	cfg := DefaultConfig(jvm.Spec{Impl: buginject.HotSpot, Version: 17})
	cfg.MaxIterations = 20
	cfg.Seed = 42
	cfg.DiffSpecs = nil // skip differential here; tested separately
	f := NewFuzzer(cfg)
	res, err := f.FuzzSeed("motivating", seedProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions < 2 {
		t.Errorf("Executions = %d", res.Executions)
	}
	if len(res.Records) == 0 {
		t.Fatal("no iteration records")
	}
	// Guidance must have updated at least one weight above 1.
	bumped := false
	for _, w := range f.Weights() {
		if w > 1 {
			bumped = true
		}
	}
	if !bumped {
		t.Error("no mutator weight ever increased under guidance")
	}
	// Δ relative to the seed should grow over iterations (paper Fig. 1):
	// compare the mean of the first third vs the last third.
	applied := 0
	var firstSum, lastSum float64
	var firstN, lastN int
	for _, r := range res.Records {
		if r.Skipped {
			continue
		}
		applied++
		if r.Iter <= cfg.MaxIterations/3 {
			firstSum += r.DeltaSeed
			firstN++
		}
		if r.Iter > 2*cfg.MaxIterations/3 {
			lastSum += r.DeltaSeed
			lastN++
		}
	}
	if applied < 5 {
		t.Fatalf("only %d mutations applied", applied)
	}
	if firstN > 0 && lastN > 0 && lastSum/float64(lastN) < firstSum/float64(firstN) {
		t.Logf("note: Δ did not grow monotonically (first %.1f, last %.1f)",
			firstSum/float64(firstN), lastSum/float64(lastN))
	}
}

func TestFuzzFindsInteractionCrash(t *testing.T) {
	// On jdk17, JDK-8312744 (coarsen after unroll) and friends are armed.
	// A few guided seeds should reach at least one crash.
	found := false
	for s := int64(0); s < 6 && !found; s++ {
		cfg := DefaultConfig(jvm.Spec{Impl: buginject.HotSpot, Version: 17})
		cfg.Seed = s
		cfg.MaxIterations = 50
		cfg.DiffSpecs = nil
		f := NewFuzzer(cfg)
		res, err := f.FuzzSeed("motivating", seedProgram(t))
		if err != nil {
			t.Fatal(err)
		}
		for _, fd := range res.Findings {
			if fd.Oracle == "crash" {
				found = true
				if fd.Bug == nil {
					t.Error("crash finding without a bug attribution")
				}
			}
		}
	}
	if !found {
		t.Error("no crash found in 6 guided seeds on jdk17 (triggers may be unreachable)")
	}
}

func TestMutatorNamesStable(t *testing.T) {
	names := MutatorNames()
	if len(names) != 13 {
		t.Fatalf("mutator count = %d, want 13", len(names))
	}
	want := []string{"LoopUnrolling-evoke", "LockElimination-evoke", "LockCoarsening-evoke",
		"Inlining-evoke", "DeReflection-evoke"}
	for i, w := range want {
		if names[i] != w {
			t.Errorf("names[%d] = %q, want %q", i, names[i], w)
		}
	}
}

func TestLockCoarseningSplitsSync(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := seedProgram(t)
	loc := locateWorkStmt(t, p)
	le := &LockEliminationEvoke{}
	mp, err := le.Apply(p, loc, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := lang.Check(p); err != nil {
		t.Fatal(err)
	}
	lc := &LockCoarseningEvoke{}
	l := mp.Locate(p)
	if !lc.Applicable(l) {
		t.Fatal("not applicable inside sync")
	}
	if _, err := lc.Apply(p, l, rng); err != nil {
		t.Fatal(err)
	}
	if err := lang.Check(p); err != nil {
		t.Fatalf("after coarsening-evoke: %v\n%s", err, lang.Format(p))
	}
	src := lang.Format(p)
	if got := strings.Count(src, "synchronized"); got < 2 {
		t.Errorf("want >= 2 synchronized regions, got %d:\n%s", got, src)
	}
}

func TestProfileGuidanceUsesLogOnly(t *testing.T) {
	// With all flags off the fuzzer sees empty OBVs: Δ is always zero
	// and no weight can change — exactly the paper's §5.1 limitation.
	cfg := DefaultConfig(jvm.Spec{Impl: buginject.HotSpot, Version: 17})
	cfg.Flags = profile.NoFlags()
	cfg.Seed = 5
	cfg.MaxIterations = 8
	cfg.DiffSpecs = nil
	f := NewFuzzer(cfg)
	res, err := f.FuzzSeed("motivating", seedProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range f.Weights() {
		if w != 1 {
			t.Errorf("weight changed to %v without profile data", w)
		}
	}
	if res.SeedOBV.Total() != 0 {
		t.Error("OBV nonzero with flags off")
	}
}

// BenchmarkMutationRound measures one guided mutate+check round (no
// execution): the fuzzer-side cost of Algorithm 1's inner loop.
func BenchmarkMutationRound(b *testing.B) {
	rng, muts := rand.New(rand.NewSource(1)), AllMutators()
	seed := lang.MustParse(corpus.MotivatingSeed)
	if err := lang.Check(seed); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := lang.CloneProgram(seed)
		locs := lang.Statements(p)
		loc, m := locs[rng.Intn(len(locs))], muts[rng.Intn(len(muts))]
		if !m.Applicable(loc) {
			continue
		}
		if _, err := m.Apply(p, loc, rng); err == nil {
			if err := lang.Check(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}
