package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/buginject"
	"repro/internal/corpus"
	"repro/internal/exec"
	"repro/internal/jit"
	"repro/internal/jvm"
	"repro/internal/lang"
)

// planOrderingSrc is a compact Issue-19301 witness: caller allocates a
// NoEscape local (escape analysis records BEscapeNone) and sync-inlines
// locked (the inliner records BInlineSync); locked throws on the last
// call, so a sync region that lost its exception cleanup leaks the
// monitor into the output. The hot statements all live in caller or
// locked, so the fuzzer's compile-only pragma lands on one of the two.
const planOrderingSrc = `
class T {
  int f;
  static void main() {
    T t = new T();
    long acc = 0;
    try {
      acc = acc + t.caller(1);
      acc = acc + t.caller(5900);
    } catch (e) {
      acc = acc + e;
    }
    print(acc);
  }
  int caller(int i) {
    T tmp = new T();
    tmp.f = i;
    int v = this.locked(i);
    return v + 1 + tmp.f;
  }
  synchronized int locked(int x) { return this.f + 100 / (x - 5900); }
}`

// eaBeforeInline reports whether the plan schedules escape_analysis
// ahead of inline in C2 — the ordering class the default pipeline never
// emits, and the precondition for triggering Issue-19301.
func eaBeforeInline(p *jit.Plan) bool {
	if p == nil {
		return false
	}
	flat := append(append(append([]string(nil), p.C2.Front...), p.C2.Loop...), p.C2.Tail...)
	ea, in := -1, -1
	for i, n := range flat {
		switch n {
		case "escape_analysis":
			ea = i
		case "inline":
			in = i
		}
	}
	return ea >= 0 && in >= 0 && ea < in
}

// seedPlanSet replicates FuzzSeedContext's plan derivation: the per-seed
// plan stream is rand.NewSource(cfgSeed ^ planSeedSalt), drawing
// fuzzedPlansPerSeed plans after the fixed default.
func seedPlanSet(cfgSeed int64, mode jit.PlanMode) []*jit.Plan {
	prng := rand.New(rand.NewSource(cfgSeed ^ planSeedSalt))
	plans := []*jit.Plan{nil}
	for len(plans) < 1+fuzzedPlansPerSeed {
		plans = append(plans, jit.GeneratePlan(prng.Int63(), mode))
	}
	return plans
}

// TestPlanFuzzFindsOrderingSensitiveBug is the campaign-level acceptance
// test for the plan dimension: with -plan-fuzz=full the fuzzer detects
// Issue-19301 via the plan-differential oracle on a seed the fixed
// pipeline can never trigger it on — and with plan fuzzing off, the same
// configuration provably reports nothing.
func TestPlanFuzzFindsOrderingSensitiveBug(t *testing.T) {
	target := jvm.Spec{Impl: buginject.OpenJ9, Version: 17}

	run := func(cfgSeed int64, mode jit.PlanMode) *FuzzResult {
		t.Helper()
		cfg := DefaultConfig(target)
		cfg.MaxIterations = 0 // no mutation: the plan set is the only fuzz dimension
		cfg.DiffSpecs = nil   // isolate the plan oracle from the spec oracle
		cfg.Seed = cfgSeed
		cfg.PlanFuzz = mode
		p, err := lang.Parse(planOrderingSrc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := NewFuzzer(cfg).FuzzSeed("plan-ordering", p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	found := int64(-1)
	for cfgSeed := int64(1); cfgSeed <= 100 && found < 0; cfgSeed++ {
		ordered := false
		for _, p := range seedPlanSet(cfgSeed, jit.PlanFull) {
			ordered = ordered || eaBeforeInline(p)
		}
		if !ordered {
			continue // this seed's plan set cannot reach the bug; skip the execution cost
		}
		res := run(cfgSeed, jit.PlanFull)
		if len(res.PlanIDs) != 1+fuzzedPlansPerSeed || res.PlanIDs[0] != "default" {
			t.Fatalf("seed %d: plan provenance malformed: %v", cfgSeed, res.PlanIDs)
		}
		for _, fd := range res.Findings {
			if fd.Oracle == "plan-differential" && fd.Bug != nil && fd.Bug.ID == "Issue-19301" {
				if fd.PlanID == "" || fd.PlanID == "default" {
					t.Errorf("seed %d: finding lacks fuzzed-plan provenance: %q", cfgSeed, fd.PlanID)
				}
				found = cfgSeed
			}
		}
	}
	if found < 0 {
		t.Fatal("no cfg seed in 1..100 detected Issue-19301 via the plan-differential oracle")
	}

	// The identical configuration with plan fuzzing off: no plan set, no
	// plan-differential findings — the bug is unreachable by construction.
	off := run(found, jit.PlanDefault)
	if off.PlanIDs != nil {
		t.Errorf("off mode recorded a plan set: %v", off.PlanIDs)
	}
	for _, fd := range off.Findings {
		if fd.Oracle == "plan-differential" {
			t.Errorf("off mode produced a plan-differential finding: %+v", fd)
		}
		if fd.Bug != nil && fd.Bug.ID == "Issue-19301" {
			t.Errorf("off mode detected Issue-19301 via %s — ordering argument broken", fd.Oracle)
		}
	}
}

// TestDisableBugsDisarmsDifferentials: DisableBugs disarms every run
// the fuzzer makes, the spec and plan differentials included, so
// plan-fuzzing the default seeds on bug-free VMs reports nothing.
func TestDisableBugsDisarmsDifferentials(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzes 20 seeds")
	}
	for i, s := range corpus.DefaultPool(20, 1) {
		cfg := DefaultConfig(jvm.Spec{Impl: buginject.HotSpot, Version: 17})
		cfg.PlanFuzz = jit.PlanFull
		cfg.MaxIterations = 20
		cfg.Seed = int64(i + 1)
		cfg.DisableBugs = true
		res, err := NewFuzzer(cfg).FuzzSeed(s.Name, s.Parse())
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for _, f := range res.Findings {
			t.Errorf("%s: finding %s via %s with every bug disarmed", s.Name, f.Bug.ID, f.Oracle)
		}
	}
}

// lastProgramExecutor runs in-process and counts the compilations that
// differentials made of the last program they ran: the most one
// program can leave in a compile cache.
type lastProgramExecutor struct {
	exec.InProcess
	src      string
	compiled int
}

func (e *lastProgramExecutor) observe(p *lang.Program, d *jvm.Differential, err error) (*jvm.Differential, error) {
	if err != nil {
		return nil, err
	}
	if src := lang.Format(p); src != e.src {
		e.src, e.compiled = src, 0
	}
	for _, r := range d.Results {
		e.compiled += r.Compiled
	}
	return d, nil
}

func (e *lastProgramExecutor) ExecuteDifferential(ctx context.Context, p *lang.Program, specs []jvm.Spec, opt jvm.Options) (*jvm.Differential, error) {
	d, err := e.InProcess.ExecuteDifferential(ctx, p, specs, opt)
	return e.observe(p, d, err)
}

func (e *lastProgramExecutor) ExecutePlanDifferential(ctx context.Context, p *lang.Program, spec jvm.Spec, plans []*jit.Plan, opt jvm.Options) (*jvm.Differential, error) {
	d, err := e.InProcess.ExecutePlanDifferential(ctx, p, spec, plans, opt)
	return e.observe(p, d, err)
}

// TestCampaignCompileCacheHoldsOneProgram: after a plan-fuzzed campaign
// the compile cache holds at most the compilations of the last final
// mutant's spec and plan differentials, not every compilation of the
// campaign.
func TestCampaignCompileCacheHoldsOneProgram(t *testing.T) {
	cache := jit.NewCache(0)
	fcfg := DefaultConfig(jvm.Spec{Impl: buginject.HotSpot, Version: 17})
	fcfg.PlanFuzz = jit.PlanFull
	fcfg.CompileCache = cache
	ex := &lastProgramExecutor{}
	res := RunCampaign(CampaignConfig{
		Seeds:    corpus.DefaultPool(4, 7),
		Budget:   120,
		Targets:  []jvm.Spec{fcfg.Target},
		Fuzz:     fcfg,
		Seed:     7,
		Executor: ex,
	})
	if res.SeedsFuzzed < 2 {
		t.Fatalf("campaign fuzzed %d seeds; the test needs several programs", res.SeedsFuzzed)
	}
	if cache.Len() == 0 || ex.compiled == 0 {
		t.Fatalf("vacuous: cache holds %d entries, last program compiled %d methods", cache.Len(), ex.compiled)
	}
	if cache.Len() > ex.compiled {
		t.Errorf("cache holds %d compilations; the last program's differentials made only %d", cache.Len(), ex.compiled)
	}
}
