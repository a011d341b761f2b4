package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/buginject"
	"repro/internal/corpus"
	"repro/internal/jvm"
)

func TestCampaignRespectsBudgetAndDedups(t *testing.T) {
	cfg := DefaultConfig(jvm.Spec{Impl: buginject.HotSpot, Version: 17})
	cfg.DiffSpecs = nil
	res := RunCampaign(CampaignConfig{
		Seeds:   corpus.DefaultPool(4, 2),
		Budget:  300,
		Targets: []jvm.Spec{{Impl: buginject.HotSpot, Version: 17}},
		Fuzz:    cfg,
		Seed:    2,
	})
	if res.Executions < 300 {
		t.Errorf("Executions = %d, want >= budget", res.Executions)
	}
	// The budget is a soft stop: the in-flight seed finishes. One seed
	// costs at most MaxIterations+1 executions plus differential runs.
	if res.Executions > 300+cfg.MaxIterations+len(jvm.AllSpecs())+2 {
		t.Errorf("Executions = %d, overshot budget too far", res.Executions)
	}
	seen := map[string]bool{}
	for _, f := range res.Findings {
		if seen[f.Bug.ID] {
			t.Errorf("bug %s reported twice", f.Bug.ID)
		}
		seen[f.Bug.ID] = true
		if f.AtExecution <= 0 || f.AtExecution > res.Executions {
			t.Errorf("finding timestamp %d out of range", f.AtExecution)
		}
	}
	if res.SeedsFuzzed == 0 || len(res.FinalDeltas) != res.SeedsFuzzed {
		t.Errorf("SeedsFuzzed=%d FinalDeltas=%d", res.SeedsFuzzed, len(res.FinalDeltas))
	}
}

func TestCampaignDeterministic(t *testing.T) {
	run := func() []string {
		cfg := DefaultConfig(jvm.Spec{Impl: buginject.HotSpot, Version: 17})
		cfg.DiffSpecs = nil
		res := RunCampaign(CampaignConfig{
			Seeds:  corpus.DefaultPool(3, 5),
			Budget: 200,
			Fuzz:   cfg,
			Seed:   5,
		})
		var ids []string
		for _, f := range res.Findings {
			ids = append(ids, f.Bug.ID)
		}
		return ids
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different finding counts: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic findings: %v vs %v", a, b)
		}
	}
}

func TestCampaignHelpers(t *testing.T) {
	b1 := buginject.ByID("JDK-8312744")
	b2 := buginject.ByID("JDK-8324174")
	res := &CampaignResult{
		Findings: []Finding{
			{Bug: b1, AtExecution: 10},
			{Bug: b2, AtExecution: 20},
		},
		FinalDeltas: []float64{5, 1, 9},
	}
	if len(res.UniqueBugs()) != 2 {
		t.Error("UniqueBugs")
	}
	if !res.BugIDs()["JDK-8312744"] {
		t.Error("BugIDs")
	}
	cc := res.ComponentCounts()
	if cc["Macro Expansion, C2"] != 2 {
		t.Errorf("ComponentCounts = %v", cc)
	}
	if res.MedianDelta() != 5 {
		t.Errorf("MedianDelta = %v", res.MedianDelta())
	}
}

// TestRunCampaignPanicsOnConfigError: RunCampaign has no error result,
// so a campaign RunCampaignContext rejects must panic with the cause
// instead of returning a nil result for the caller to dereference.
func TestRunCampaignPanicsOnConfigError(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("RunCampaign with an unknown schedule mode returned instead of panicking")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "bogus") {
			t.Errorf("panic %q does not name the bad schedule mode", msg)
		}
	}()
	RunCampaign(CampaignConfig{
		Seeds:        corpus.DefaultPool(1, 1),
		Budget:       10,
		SeedSchedule: "bogus",
	})
}
