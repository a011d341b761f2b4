package experiments

import (
	"fmt"
	"io"

	"repro/internal/jit"
)

// PlanRecall reruns the ground-truth recall campaign once per
// plan-generation mode — off (the fixed production pipeline), minimal
// (mandatory passes, fuzzed order), full (fuzzed selection, order, and
// loop rounds) — and reports which of the 59 seeded bugs each mode
// detects within the same budget. The interesting column is the bugs
// only a fuzzed schedule reaches: ordering-sensitive interactions the
// fixed pipeline provably cannot trigger (its pass pairs only ever
// occur in one order).
func PlanRecall(w io.Writer, budget Budget) {
	modes := []jit.PlanMode{jit.PlanDefault, jit.PlanMinimal, jit.PlanFull}
	detected := make([]map[string]int, len(modes))
	for i, mode := range modes {
		detected[i] = recallRun(budget, mode).detected()
	}

	fmt.Fprintf(w, "Plan-fuzz recall vs ground truth (budget %d executions per mode, %d seeds)\n\n",
		budget.Executions, budget.Seeds)
	table(w, []string{"Impl", "Component", "off", "minimal", "full"}, recallRows(detected...))

	// Bugs only a fuzzed schedule reached: the plan dimension's net gain.
	detectedOnly(w, detected[2], detected[0], "-plan-fuzz=full", "", nil,
		"No plan-only bugs at this budget (raise -budget).")
}
