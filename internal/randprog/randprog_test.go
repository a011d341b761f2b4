package randprog

import (
	"math/rand"
	"testing"

	"repro/internal/buginject"
	"repro/internal/bytecode"
	"repro/internal/jit"
	"repro/internal/jvm"
	"repro/internal/lang"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(rand.New(rand.NewSource(9)))
	b := Generate(rand.New(rand.NewSource(9)))
	if a != b {
		t.Error("same seed produced different programs")
	}
}

func TestGeneratedProgramsParseAndCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		src := Generate(rng)
		p, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("program %d does not parse: %v\n%s", i, err, src)
		}
		if err := lang.Check(p); err != nil {
			t.Fatalf("program %d ill-typed: %v\n%s", i, err, src)
		}
	}
}

// TestInterpreterVsJITStress is the substrate's own fuzzing campaign:
// random programs must behave identically on the bytecode interpreter
// and on the bug-free optimizing JIT — if this test fails, one of the
// sixteen passes or the executor has a real semantics bug.
func TestInterpreterVsJITStress(t *testing.T) {
	trials := 80
	if testing.Short() {
		trials = 15
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < trials; i++ {
		src := Generate(rng)
		p, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		if err := lang.Check(p); err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		ref, err := jvm.Run(lang.CloneProgram(p), jvm.Reference(), jvm.Options{
			PureInterpreter: true, MaxSteps: 8_000_000,
		})
		if err != nil {
			t.Fatalf("program %d interp: %v", i, err)
		}
		opt, err := jvm.Run(lang.CloneProgram(p), jvm.Reference(), jvm.Options{
			ForceCompile: true, Bugs: []*buginject.Bug{}, MaxSteps: 8_000_000,
		})
		if err != nil {
			t.Fatalf("program %d jit: %v", i, err)
		}
		if ref.Result.TimedOut || opt.Result.TimedOut {
			continue
		}
		if opt.Crashed() {
			t.Fatalf("program %d crashed the bug-free JIT: %v\n%s", i, opt.Result.Crash, src)
		}
		if ref.Result.OutputString() != opt.Result.OutputString() {
			t.Fatalf("program %d: engines disagree\n-- interp --\n%s\n-- jit --\n%s\n-- source --\n%s",
				i, ref.Result.OutputString(), opt.Result.OutputString(), src)
		}
	}
}

// TestOpenJ9PipelineStress repeats the differential check against the
// OpenJ9-tuned pipeline (bigger inline budget, later traps).
func TestOpenJ9PipelineStress(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 8
	}
	rng := rand.New(rand.NewSource(13))
	spec := jvm.Spec{Impl: buginject.OpenJ9, Version: 23}
	for i := 0; i < trials; i++ {
		src := Generate(rng)
		p := lang.MustParse(src)
		if err := lang.Check(p); err != nil {
			t.Fatal(err)
		}
		ref, err := jvm.Run(lang.CloneProgram(p), spec, jvm.Options{PureInterpreter: true, MaxSteps: 8_000_000})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := jvm.Run(lang.CloneProgram(p), spec, jvm.Options{
			ForceCompile: true, Bugs: []*buginject.Bug{}, MaxSteps: 8_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref.Result.TimedOut || opt.Result.TimedOut {
			continue
		}
		if ref.Result.OutputString() != opt.Result.OutputString() {
			t.Fatalf("program %d (J9): engines disagree\n%s\nvs\n%s\n%s",
				i, ref.Result.OutputString(), opt.Result.OutputString(), src)
		}
	}
}

// TestZeroBugSoundness checks that with no bug armed every tier and
// every fuzzed plan agrees with the interpreter: generated programs run
// on HotSpot and OpenJ9 mainline, under the default plan and three
// PlanFull plans, with forced compilation and with threshold tiering.
// Any disagreement is a substrate bug that would show up as a false
// positive in every recall table. Timeouts are skipped.
func TestZeroBugSoundness(t *testing.T) {
	programs, plansPer := 40, 3
	if testing.Short() {
		programs = 8
	}
	rng := rand.New(rand.NewSource(31))
	compared, skipped := 0, 0
	for i := 0; i < programs; i++ {
		src := Generate(rng)
		p := lang.MustParse(src)
		if err := lang.Check(p); err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		plans := []*jit.Plan{nil}
		for k := 0; k < plansPer; k++ {
			plans = append(plans, jit.GeneratePlan(int64(i*plansPer+k+1), jit.PlanFull))
		}
		for _, spec := range []jvm.Spec{{Impl: buginject.HotSpot, Version: 23}, {Impl: buginject.OpenJ9, Version: 23}} {
			ref, err := jvm.Run(lang.CloneProgram(p), spec, jvm.Options{PureInterpreter: true, MaxSteps: 8_000_000})
			if err != nil {
				t.Fatalf("program %d %s interp: %v", i, spec.Name(), err)
			}
			if ref.Result.TimedOut {
				skipped += 2 * len(plans)
				continue
			}
			want := ref.Result.OutputString()
			for _, plan := range plans {
				for _, force := range []bool{true, false} {
					got, err := jvm.Run(lang.CloneProgram(p), spec, jvm.Options{
						ForceCompile: force, Bugs: []*buginject.Bug{}, Plan: plan, MaxSteps: 8_000_000,
					})
					if err != nil {
						t.Fatalf("program %d %s plan %s force=%v: %v", i, spec.Name(), jit.PlanID(plan), force, err)
					}
					if got.Result.TimedOut {
						skipped++
						continue
					}
					compared++
					if out := got.Result.OutputString(); out != want {
						t.Fatalf("program %d %s plan %s force=%v disagrees with the interpreter\n-- interp --\n%s\n-- jit --\n%s\n-- source --\n%s",
							i, spec.Name(), jit.PlanID(plan), force, want, out, src)
					}
				}
			}
		}
	}
	t.Logf("%d runs agreed with the interpreter, %d timed out", compared, skipped)
	if compared < skipped {
		t.Errorf("only %d of %d runs finished: the matrix checks too little", compared, compared+skipped)
	}
}

// TestGeneratedImagesVerify checks the bytecode verifier accepts every
// compiled random program (the compiler and verifier agree on
// structural rules).
func TestGeneratedImagesVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 40; i++ {
		p := lang.MustParse(Generate(rng))
		if err := lang.Check(p); err != nil {
			t.Fatal(err)
		}
		img, err := bytecode.Compile(p)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		if err := bytecode.Verify(img); err != nil {
			t.Fatalf("program %d fails verification: %v", i, err)
		}
	}
}

// TestRoundTripGeneratedPrograms checks parse(format(p)) == format(p)
// on random programs (the printer/parser property at scale).
func TestRoundTripGeneratedPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 40; i++ {
		p := lang.MustParse(Generate(rng))
		if err := lang.Check(p); err != nil {
			t.Fatal(err)
		}
		s1 := lang.Format(p)
		p2, err := lang.Parse(s1)
		if err != nil {
			t.Fatalf("program %d reparse: %v", i, err)
		}
		if err := lang.Check(p2); err != nil {
			t.Fatalf("program %d recheck: %v", i, err)
		}
		if s2 := lang.Format(p2); s1 != s2 {
			t.Fatalf("program %d round trip unstable", i)
		}
	}
}
