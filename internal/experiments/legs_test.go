package experiments

import (
	"reflect"
	"testing"
)

// legBudget is small on purpose: the shape of the recall tables does not
// depend on the budget, only their detections do.
func legBudget() Budget { return Budget{Executions: 60, Seeds: 4, Seed: 1} }

// TestScheduleLegs pins the power-schedule recall table's shape: four
// legs, schedule off then power at each plan mode, and every leg spends
// executions.
func TestScheduleLegs(t *testing.T) {
	runs, err := runScheduleLegs(legBudget())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("got %d schedule legs, want 4", len(runs))
	}
	var schedules, plans []string
	for i, r := range runs {
		schedules = append(schedules, r.leg.Schedule)
		plans = append(plans, r.leg.PlanFuzz)
		if r.leg.Executions <= 0 {
			t.Errorf("leg %d (%s, %s) executed nothing", i, r.leg.Schedule, r.leg.PlanFuzz)
		}
	}
	if want := []string{"off", "power", "off", "power"}; !reflect.DeepEqual(schedules, want) {
		t.Errorf("schedules = %v, want %v", schedules, want)
	}
	if want := []string{"default", "default", "full", "full"}; !reflect.DeepEqual(plans, want) {
		t.Errorf("plan modes = %v, want %v", plans, want)
	}
}

// TestGeneratorLegs pins the generator recall table's shape: four legs,
// the randprog-only baseline first (so no detection can ride a
// generator-emitted seed), and every leg spends executions.
func TestGeneratorLegs(t *testing.T) {
	runs, err := runGeneratorLegs(legBudget())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("got %d generator legs, want 4", len(runs))
	}
	base := runs[0].leg
	if !reflect.DeepEqual(base.Generators, []string{"randprog"}) {
		t.Errorf("leg 0 generators = %v, want [randprog]", base.Generators)
	}
	if base.GeneratorDetections != 0 {
		t.Errorf("randprog baseline credits %d detections to generator seeds, want 0", base.GeneratorDetections)
	}
	for i, r := range runs {
		if r.leg.Executions <= 0 {
			t.Errorf("leg %d (%v) executed nothing", i, r.leg.Generators)
		}
	}
}
