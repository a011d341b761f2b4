package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/buginject"
	"repro/internal/core"
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
func scheduleLegPlans() []core.JobSpec {
	return []core.JobSpec{
		{Schedule: "off", PlanFuzz: "off"},
		{Schedule: "power", PlanFuzz: "off"},
		{Schedule: "off", PlanFuzz: "full"},
		{Schedule: "power", PlanFuzz: "full"},
	}
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
		detected, _, execs, err := legDetected(budget, lg)
		if err != nil {
			return nil, err
		}
		plan, _ := jit.ParsePlanMode(lg.PlanFuzz) // "off" reads as "default"
		runs = append(runs, scheduleLegRun{
			leg: ScheduleLeg{
				Schedule:            lg.Schedule,
				PlanFuzz:            string(plan),
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
	runs, err := runScheduleLegs(budget)
	if err != nil {
		return err
	}
	renderScheduleRecall(w, budget, runs)
	return nil
}

func renderScheduleRecall(w io.Writer, budget Budget, runs []scheduleLegRun) {
	fmt.Fprintf(w, "Power-schedule recall vs ground truth (budget %d executions per leg, %d seeds)\n\n",
		budget.Executions, budget.Seeds)
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
		plan := power.leg.PlanFuzz
		detectedOnly(w, power.detected, off.detected, "-schedule=power", "plan-fuzz "+plan+", ", nil,
			"No power-only bugs at plan-fuzz "+plan+" at this budget (raise -budget).")
	}
}
