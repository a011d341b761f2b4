package exec_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/exec"
	"repro/internal/jit"
	"repro/internal/jvm"
	"repro/internal/lang"
)

// TestPlanDifferentialBackendEquivalence: the plan-vs-plan oracle must
// produce byte-identical differentials in process, on the warm pool, and
// on the spawn-per-exec pool (the "subprocess" cell) — same groups, same
// per-plan results, same PlanID provenance — so campaign findings do not
// depend on how executions are dispatched.
func TestPlanDifferentialBackendEquivalence(t *testing.T) {
	sub := spawnPerExec(t, exec.PoolConfig{})
	pool := poolBackend(t, exec.PoolConfig{})

	seed := corpus.DefaultPool(1, 9)[0]
	p, err := lang.Parse(seed.Source)
	if err != nil {
		t.Fatal(err)
	}
	plans := []*jit.Plan{
		nil,
		jit.GeneratePlan(1, jit.PlanFull),
		jit.GeneratePlan(2, jit.PlanFull),
		jit.GeneratePlan(3, jit.PlanMinimal),
	}
	opt := jvm.Options{ForceCompile: true, MaxSteps: 2_000_000}

	want, err := exec.InProcess{}.ExecutePlanDifferential(
		context.Background(), lang.CloneProgram(p), hotspot17(), plans, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Results) != len(plans) {
		t.Fatalf("in-process produced %d results for %d plans", len(want.Results), len(plans))
	}

	for _, backend := range []struct {
		name string
		ex   exec.Executor
	}{{"subprocess", sub}, {"pool", pool}} {
		t.Run(backend.name, func(t *testing.T) {
			got, err := backend.ex.ExecutePlanDifferential(
				context.Background(), lang.CloneProgram(p), hotspot17(), plans, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Groups, want.Groups) {
				t.Errorf("groups diverged: %v vs %v", got.Groups, want.Groups)
			}
			if len(got.Results) != len(want.Results) {
				t.Fatalf("result counts diverged: %d vs %d", len(got.Results), len(want.Results))
			}
			for i := range got.Results {
				if got.Results[i].PlanID != jit.PlanID(plans[i]) {
					t.Errorf("result %d PlanID = %q, want %q", i, got.Results[i].PlanID, jit.PlanID(plans[i]))
				}
				if !reflect.DeepEqual(got.Results[i], want.Results[i]) {
					t.Errorf("result %d (plan %s) diverged", i, want.Results[i].PlanID)
				}
			}
		})
	}
}
