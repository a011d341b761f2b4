package baselines

import (
	"testing"

	"repro/internal/buginject"
	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/jvm"
	"repro/internal/lang"
)

var target = jvm.Spec{Impl: buginject.HotSpot, Version: 17}

func seed() *lang.Program { return lang.MustParse(corpus.MotivatingSeed) }

func TestToolNames(t *testing.T) {
	if NewMopFuzzer(target, nil).Name() != "MopFuzzer" {
		t.Error("MopFuzzer name")
	}
	if NewMopFuzzerG(target, nil).Name() != "MopFuzzer_g" {
		t.Error("MopFuzzer_g name")
	}
	if NewMopFuzzerR(target, nil).Name() != "MopFuzzer_r" {
		t.Error("MopFuzzer_r name")
	}
	if NewJITFuzz(target, nil).Name() != "JITFuzz" {
		t.Error("JITFuzz name")
	}
	if NewArtemis(target, nil).Name() != "Artemis" {
		t.Error("Artemis name")
	}
}

func TestVariantsConfiguredPerPaper(t *testing.T) {
	g := NewMopFuzzerG(target, nil)
	if g.Cfg.Guided || !g.Cfg.FixedMP {
		t.Errorf("MopFuzzer_g config = guided %v fixedMP %v", g.Cfg.Guided, g.Cfg.FixedMP)
	}
	r := NewMopFuzzerR(target, nil)
	if !r.Cfg.Guided || r.Cfg.FixedMP {
		t.Errorf("MopFuzzer_r config = guided %v fixedMP %v", r.Cfg.Guided, r.Cfg.FixedMP)
	}
	jf := NewJITFuzz(target, nil)
	if jf.Iterations != 1000 {
		t.Errorf("JITFuzz iterations = %d, want 1000", jf.Iterations)
	}
}

func TestJITFuzzRuns(t *testing.T) {
	cov := coverage.NewTracker()
	jf := NewJITFuzz(target, cov)
	jf.Iterations = 30
	jf.DiffSpecs = nil
	jf.DisableBugs = true
	res, err := jf.FuzzSeed("seed", seed(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions < 10 {
		t.Errorf("Executions = %d", res.Executions)
	}
	if res.Final == nil {
		t.Fatal("no final mutant")
	}
	if err := lang.Check(res.Final); err != nil {
		t.Fatalf("final mutant ill-typed: %v", err)
	}
	if cov.Hits() == 0 {
		t.Error("no coverage recorded")
	}
}

func TestArtemisNonIterative(t *testing.T) {
	art := NewArtemis(target, nil)
	art.DiffSpecs = nil
	art.DisableBugs = true
	res, err := art.FuzzSeed("seed", seed(), 3)
	if err != nil {
		t.Fatal(err)
	}
	// Artemis applies templates once: seed execution + one mutant
	// execution only.
	if res.Executions != 2 {
		t.Errorf("Executions = %d, want 2 (non-iterative)", res.Executions)
	}
	if err := lang.Check(res.Final); err != nil {
		t.Fatalf("final mutant ill-typed: %v", err)
	}
}

func TestMopVariantsProduceValidMutants(t *testing.T) {
	for _, mk := range []func(jvm.Spec, *coverage.Tracker) *MopFuzzerTool{
		NewMopFuzzer, NewMopFuzzerG, NewMopFuzzerR,
	} {
		tool := mk(target, nil)
		tool.Cfg.MaxIterations = 8
		tool.Cfg.DiffSpecs = nil
		tool.Cfg.DisableBugs = true
		res, err := tool.FuzzSeed("seed", seed(), 9)
		if err != nil {
			t.Fatalf("%s: %v", tool.Name(), err)
		}
		if err := lang.Check(res.Final); err != nil {
			t.Fatalf("%s: invalid final mutant: %v", tool.Name(), err)
		}
	}
}

func TestJITFuzzGrowthCapped(t *testing.T) {
	jf := NewJITFuzz(target, nil)
	jf.Iterations = 120
	jf.DiffSpecs = nil
	jf.DisableBugs = true
	res, err := jf.FuzzSeed("seed", seed(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if n := lang.CountStmts(res.Final); n > 400 {
		t.Errorf("final mutant has %d statements, cap is 400", n)
	}
}

// TestDisableBugsDisarmsDifferential pins that DisableBugs disarms the
// final mutant's spec differential as well as the fuzzing runs, as in
// core: with every bug disarmed the oracle has nothing to blame, so
// neither baseline may report a finding.
func TestDisableBugsDisarmsDifferential(t *testing.T) {
	for idx := int64(1); idx <= 6; idx++ {
		art := NewArtemis(target, nil)
		art.DisableBugs = true
		jf := NewJITFuzz(target, nil)
		jf.Iterations = 10
		jf.DisableBugs = true
		for _, tool := range []Tool{art, jf} {
			res, err := tool.FuzzSeed("seed", seed(), idx)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range res.Findings {
				t.Errorf("%s seed %d: %s finding for %s with bugs disabled", tool.Name(), idx, f.Oracle, f.Bug.ID)
			}
		}
	}
}
