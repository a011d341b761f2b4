package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/buginject"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/jit"
)

// ScheduleLeg is one cell of the scheduling comparison: a full campaign
// at the given seed-budget policy and plan-generation mode, scored
// against the 59-bug ground-truth catalog. MedianExecsToDetect is the
// median cumulative-execution count at first detection over the bugs
// the leg found — the power schedule's claim is that it detects at
// least as many bugs in fewer median executions, because energy moves
// budget toward diverse, high-yield (seed, plan-mode) arms.
type ScheduleLeg struct {
	Schedule            string
	PlanFuzz            string
	Detected            int
	Executions          int
	MedianExecsToDetect float64
	// MedianCommonExecsToDetect is the median over only the bugs BOTH
	// legs of the same plan-fuzz pair detected — the paired
	// time-to-detection statistic. The unpaired median punishes the leg
	// that detects more: its extra bugs are necessarily late detections,
	// so they drag its median up even when it reaches every shared bug
	// sooner.
	MedianCommonExecsToDetect float64
}

// scheduleLegPlans pairs each schedule mode with the plan modes the
// recall table compares: the fixed pipeline and the fully fuzzed one
// (which also gives the power schedule its plan-mode arm axis).
func scheduleLegPlans() []struct {
	Schedule corpus.ScheduleMode
	Plan     jit.PlanMode
} {
	return []struct {
		Schedule corpus.ScheduleMode
		Plan     jit.PlanMode
	}{
		{corpus.ScheduleOff, jit.PlanDefault},
		{corpus.SchedulePower, jit.PlanDefault},
		{corpus.ScheduleOff, jit.PlanFull},
		{corpus.SchedulePower, jit.PlanFull},
	}
}

// scheduleDetected runs one campaign-level recall leg and returns bug
// ID -> cumulative executions at first detection, plus the executions
// actually spent. Campaign-level (core.RunCampaignContext, not
// per-seed tool loops) because the power schedule is a campaign policy:
// it only exists in the round planner. The error is a backend fault
// while scoring the pool.
func scheduleDetected(budget Budget, sched corpus.ScheduleMode, plan jit.PlanMode) (map[string]int, int, error) {
	targets := allTargets()
	fcfg := core.DefaultConfig(targets[0])
	fcfg.Seed = budget.Seed
	fcfg.StructuredOBV = true
	fcfg.PlanFuzz = plan
	fcfg.Executor = budget.Executor
	res, err := core.RunCampaignContext(context.Background(), core.CampaignConfig{
		Seeds:        pool(budget),
		Budget:       budget.Executions,
		Targets:      targets,
		Fuzz:         fcfg,
		Seed:         budget.Seed,
		Executor:     budget.Executor,
		SeedSchedule: sched,
	}, harness.Config{})
	if err != nil {
		return nil, 0, err
	}
	detected := map[string]int{}
	for i := range res.Findings {
		f := &res.Findings[i]
		if f.Bug == nil {
			continue
		}
		if at, ok := detected[f.Bug.ID]; !ok || f.AtExecution < at {
			detected[f.Bug.ID] = f.AtExecution
		}
	}
	return detected, res.Executions, nil
}

// medianDetection returns the median first-detection execution count.
func medianDetection(detected map[string]int) float64 {
	if len(detected) == 0 {
		return 0
	}
	ats := make([]int, 0, len(detected))
	for _, at := range detected {
		ats = append(ats, at)
	}
	sort.Ints(ats)
	n := len(ats)
	if n%2 == 1 {
		return float64(ats[n/2])
	}
	return float64(ats[n/2-1]+ats[n/2]) / 2
}

// scheduleLegRun pairs a leg's summary with its raw detection map.
type scheduleLegRun struct {
	leg      ScheduleLeg
	detected map[string]int
}

// runScheduleLegs executes the 2x2 comparison and fills in the paired
// common-bug medians per (off, power) pair.
func runScheduleLegs(budget Budget) ([]scheduleLegRun, error) {
	var runs []scheduleLegRun
	for _, lg := range scheduleLegPlans() {
		detected, execs, err := scheduleDetected(budget, lg.Schedule, lg.Plan)
		if err != nil {
			return nil, err
		}
		runs = append(runs, scheduleLegRun{
			leg: ScheduleLeg{
				Schedule:            string(lg.Schedule),
				PlanFuzz:            string(lg.Plan),
				Detected:            len(detected),
				Executions:          execs,
				MedianExecsToDetect: medianDetection(detected),
			},
			detected: detected,
		})
	}
	// scheduleLegPlans orders legs (off, power) per plan mode.
	for i := 0; i+1 < len(runs); i += 2 {
		off, power := &runs[i], &runs[i+1]
		common := map[string]bool{}
		for id := range off.detected {
			if _, ok := power.detected[id]; ok {
				common[id] = true
			}
		}
		restrict := func(m map[string]int) map[string]int {
			out := map[string]int{}
			for id, at := range m {
				if common[id] {
					out[id] = at
				}
			}
			return out
		}
		off.leg.MedianCommonExecsToDetect = medianDetection(restrict(off.detected))
		power.leg.MedianCommonExecsToDetect = medianDetection(restrict(power.detected))
	}
	return runs, nil
}

// ScheduleRecall reruns the ground-truth recall campaign per scheduling
// leg and reports detections and executions-to-detection, schedule off
// vs power at each plan mode — the corpus subsystem's validation: power
// should detect at least as many of the 59 seeded bugs while reaching
// them in fewer median executions.
func ScheduleRecall(w io.Writer, budget Budget) error {
	fmt.Fprintf(w, "Power-schedule recall vs ground truth (budget %d executions per leg, %d seeds)\n\n",
		budget.Executions, budget.Seeds)

	runs, err := runScheduleLegs(budget)
	if err != nil {
		return err
	}

	var rows [][]string
	for _, r := range runs {
		rows = append(rows, []string{
			r.leg.Schedule, r.leg.PlanFuzz,
			fmt.Sprintf("%d/%d", r.leg.Detected, len(buginject.Catalog)),
			fmt.Sprintf("%d", r.leg.Executions),
			fmt.Sprintf("%.0f", r.leg.MedianExecsToDetect),
			fmt.Sprintf("%.0f", r.leg.MedianCommonExecsToDetect),
		})
	}
	table(w, []string{"Schedule", "PlanFuzz", "Detected", "Execs", "MedianToDetect", "MedianCommon"}, rows)

	// Bugs only the power schedule reached, per plan mode: the energy
	// allocation's net gain over cursor order at the same budget.
	for i := 0; i+1 < len(runs); i += 2 {
		off, power := runs[i], runs[i+1]
		var powerOnly []string
		for id := range power.detected {
			if _, ok := off.detected[id]; !ok {
				powerOnly = append(powerOnly, id)
			}
		}
		sort.Strings(powerOnly)
		if len(powerOnly) > 0 {
			fmt.Fprintf(w, "\nDetected only with -schedule=power (plan-fuzz %s, %d):\n",
				power.leg.PlanFuzz, len(powerOnly))
			for _, id := range powerOnly {
				b := buginject.ByID(id)
				fmt.Fprintf(w, "  %-14s %s (%s, %s)\n", id, b.Component, b.Kind, b.Impl)
			}
		} else {
			fmt.Fprintf(w, "\nNo power-only bugs at plan-fuzz %s at this budget (raise -budget).\n",
				power.leg.PlanFuzz)
		}
	}
	return nil
}
