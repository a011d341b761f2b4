package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/baselines"
	"repro/internal/buginject"
	"repro/internal/jit"
	"repro/internal/jvm"
)

// Recall runs a long multi-version campaign and reports ground-truth
// recall: which of the 59 seeded bugs the fuzzer detected within budget,
// per implementation and component. The paper cannot measure this
// (real-JVM ground truth is unknown); it is this reproduction's added
// measurement, and the long-horizon sanity check that every bug class
// is reachable.
func Recall(w io.Writer, budget Budget) {
	run := recallRun(budget, jit.PlanDefault)

	fmt.Fprintf(w, "Recall vs ground truth (budget %d executions, %d seeds, targets cycled over %d builds)\n\n",
		budget.Executions, budget.Seeds, len(jvm.AllSpecs()))
	table(w, []string{"Impl", "Component", "Detected"}, recallRows(run.detected()))

	if len(run.Findings) > 0 {
		fmt.Fprintln(w, "\nDetection order (bug @ cumulative executions):")
		for i, f := range run.Findings {
			fmt.Fprintf(w, "  %6d  %-14s %s (%s)\n", run.FindingAt[i], f.Bug.ID, f.Bug.Component, f.Bug.Kind)
		}
	}
}

// recallRun is one Recall-shaped campaign, run once per process:
// MopFuzzer under the given plan-generation mode, cycling every target
// across seeds and rounds.
func recallRun(budget Budget, mode jit.PlanMode) *toolRun {
	return once(budget, "Recall/"+string(mode), recallSalt, func() *toolRun {
		targets := jvm.AllSpecs()
		return runSeeds(budget, recallSalt, func(idx int64, i int) baselines.Tool {
			tool := baselines.NewMopFuzzer(targets[(int(idx)+i)%len(targets)], nil)
			tool.Cfg.PlanFuzz = mode
			return tool
		})
	})
}

// recallRows is the recall table body: one row per catalog
// Impl/Component, sorted, with a found/total cell per detection map
// (bug ID -> executions at first detection), then the Total row.
func recallRows(detected ...map[string]int) [][]string {
	type row struct {
		impl      buginject.Impl
		component string
		total     int
		found     []int
	}
	agg := map[string]*row{}
	var order []string
	for _, b := range buginject.Catalog {
		key := string(b.Impl) + "/" + b.Component
		r := agg[key]
		if r == nil {
			r = &row{impl: b.Impl, component: b.Component, found: make([]int, len(detected))}
			agg[key] = r
			order = append(order, key)
		}
		r.total++
		for i, d := range detected {
			if _, ok := d[b.ID]; ok {
				r.found[i]++
			}
		}
	}
	sort.Strings(order)

	var rows [][]string
	found := make([]int, len(detected))
	total := 0
	for _, key := range order {
		r := agg[key]
		cells := []string{string(r.impl), r.component}
		for i, n := range r.found {
			cells = append(cells, fmt.Sprintf("%d/%d", n, r.total))
			found[i] += n
		}
		total += r.total
		rows = append(rows, cells)
	}
	totalCells := []string{"", "Total"}
	for _, n := range found {
		totalCells = append(totalCells, fmt.Sprintf("%d/%d", n, total))
	}
	return append(rows, totalCells)
}

// detectedOnly lists, by ID, the bugs in found that base lacks under
// "Detected only with <with> (<qual><count>):", or prints none when
// there are none. via, when non-nil, names the provenance of each
// bug's first hit ("" = a pool seed).
func detectedOnly(w io.Writer, found, base map[string]int, with, qual string, via map[string]string, none string) {
	var only []string
	for id := range found {
		if _, ok := base[id]; !ok {
			only = append(only, id)
		}
	}
	if len(only) == 0 {
		fmt.Fprintf(w, "\n%s\n", none)
		return
	}
	sort.Strings(only)
	fmt.Fprintf(w, "\nDetected only with %s (%s%d):\n", with, qual, len(only))
	for _, id := range only {
		b := buginject.ByID(id)
		suffix := ""
		if via != nil {
			suffix = "; first hit via pool seed"
			if gen := via[id]; gen != "" {
				suffix = "; first hit via seed by " + gen
			}
		}
		fmt.Fprintf(w, "  %-14s %s (%s, %s%s)\n", id, b.Component, b.Kind, b.Impl, suffix)
	}
}
