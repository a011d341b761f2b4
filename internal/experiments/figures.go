package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/baselines"
	"repro/internal/buginject"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/jvm"
)

// Figure1 reproduces the case-study curve: Δ(OBV of the i-th mutant,
// OBV of the original seed) over a guided run that ends in a crash,
// with "large jump" iterations marked.
func Figure1(w io.Writer, budget Budget) {
	seeds := pool(budget)
	target := jvm.Spec{Impl: buginject.HotSpot, Version: 17}

	// Find a guided run that crashes after a healthy number of
	// iterations (the paper's case study crashes at mutant 48).
	var best *core.FuzzResult
	parsed := corpus.NewParseCache() // parse each seed once across the search
	for s := int64(0); s < 24; s++ {
		cfg := core.DefaultConfig(target)
		cfg.Seed = budget.Seed*1000 + s
		cfg.DiffSpecs = nil
		cfg.Executor = budget.Executor
		f := core.NewFuzzer(cfg)
		fr, err := f.FuzzSeed("fig1", parsed.Parse(seeds[int(s)%len(seeds)]))
		if err != nil {
			continue
		}
		crashed := false
		for _, fd := range fr.Findings {
			if fd.Oracle == "crash" {
				crashed = true
			}
		}
		if crashed && (best == nil || len(fr.Records) > len(best.Records)) {
			best = fr
		}
	}
	fmt.Fprintln(w, "Figure 1: Euclidean distance between the i-th mutant's OBV and the seed's OBV")
	if best == nil {
		fmt.Fprintln(w, "  no crashing run found within the search budget; increase -budget")
		return
	}
	crashID := ""
	for _, fd := range best.Findings {
		if fd.Bug != nil {
			crashID = fd.Bug.ID
		}
	}
	fmt.Fprintf(w, "(the %dth mutant triggers %s; * marks large jumps)\n\n", len(best.Records), crashID)

	// Collect the curve and the mean jump.
	var deltas []float64
	var jumps []float64
	prev := 0.0
	for _, r := range best.Records {
		if r.Skipped {
			continue
		}
		deltas = append(deltas, r.DeltaSeed)
		jumps = append(jumps, r.DeltaSeed-prev)
		prev = r.DeltaSeed
	}
	meanJump := 0.0
	for _, j := range jumps {
		if j > 0 {
			meanJump += j
		}
	}
	if len(jumps) > 0 {
		meanJump /= float64(len(jumps))
	}
	maxD := 1.0
	for _, d := range deltas {
		if d > maxD {
			maxD = d
		}
	}
	for i, d := range deltas {
		bar := int(40 * d / maxD)
		mark := " "
		if jumps[i] > 2*meanJump && jumps[i] > 1 {
			mark = "*"
		}
		fmt.Fprintf(w, "  iter %2d %s %8.1f %s\n", i+1, mark, d, strings.Repeat("#", bar))
	}
}

// Figure2 compares line coverage per VM component across the three
// tools under the same budget (Figure 2).
func Figure2(w io.Writer, budget Budget) {
	target := jvm.Spec{Impl: buginject.HotSpot, Version: 17}
	covs := []*coverage.Tracker{coverage.NewTracker(), coverage.NewTracker(), coverage.NewTracker()}
	jf := baselines.NewJITFuzz(target, covs[1])
	if budget.Executions < jf.Iterations {
		jf.Iterations = budget.Executions
	}
	tools := []baselines.Tool{
		baselines.NewMopFuzzer(target, covs[0]),
		jf,
		baselines.NewArtemis(target, covs[2]),
	}
	names := []string{"MopFuzzer", "JITFuzz", "Artemis"}
	for _, tool := range tools {
		runSeeds(budget, toolSalt, fixed(tool))
	}
	fmt.Fprintf(w, "Figure 2: Line coverage by component (budget %d executions; %d instrumented lines)\n\n",
		budget.Executions, coverage.TotalLines())
	header := append([]string{"Component"}, names...)
	var rows [][]string
	for _, comp := range coverage.Components() {
		row := []string{string(comp)}
		for _, cov := range covs {
			row = append(row, fmt.Sprintf("%5.1f%%", cov.Percent(comp)))
		}
		rows = append(rows, row)
	}
	sum := []string{"Summary"}
	for _, cov := range covs {
		sum = append(sum, fmt.Sprintf("%5.1f%%", cov.Summary()))
	}
	rows = append(rows, sum)
	table(w, header, rows)
}

// Figure3 renders the distribution of final-mutant Δ for the three tools
// (Figure 3's boxplot).
func Figure3(w io.Writer, budget Budget) {
	target := jvm.Spec{Impl: buginject.HotSpot, Version: 17}
	// Δ is a property of generated mutants, not of bugs: measure on
	// bug-free VMs so crashes don't truncate the 50-iteration runs.
	mop := baselines.NewMopFuzzer(target, nil)
	mop.Cfg.DisableBugs = true
	mop.Cfg.DiffSpecs = nil
	jf := baselines.NewJITFuzz(target, nil)
	jf.DisableBugs = true
	jf.DiffSpecs = nil
	if budget.Executions < jf.Iterations {
		jf.Iterations = budget.Executions
	}
	art := baselines.NewArtemis(target, nil)
	art.DisableBugs = true
	art.DiffSpecs = nil
	tools := []baselines.Tool{mop, jf, art}
	renderDeltaBoxplots(w, "Figure 3: Euclidean distance of OBV (final mutant vs seed) per tool", tools, budget)
}

// Figure4 renders the same distribution for MopFuzzer and its variants
// (Figure 4).
func Figure4(w io.Writer, budget Budget) {
	target := jvm.Spec{Impl: buginject.HotSpot, Version: 17}
	var tools []baselines.Tool
	for _, mk := range []func(jvm.Spec, *coverage.Tracker) *baselines.MopFuzzerTool{
		baselines.NewMopFuzzer, baselines.NewMopFuzzerG, baselines.NewMopFuzzerR,
	} {
		tool := mk(target, nil)
		tool.Cfg.DisableBugs = true
		tool.Cfg.DiffSpecs = nil
		tools = append(tools, tool)
	}
	renderDeltaBoxplots(w, "Figure 4: Euclidean distance of OBV for MopFuzzer and its variants", tools, budget)
}

func renderDeltaBoxplots(w io.Writer, title string, tools []baselines.Tool, budget Budget) {
	fmt.Fprintf(w, "%s (budget %d executions)\n\n", title, budget.Executions)
	var runs []*toolRun
	hi := 1.0
	for _, tool := range tools {
		r := runSeeds(budget, toolSalt, fixed(tool))
		runs = append(runs, r)
		for _, d := range r.Deltas {
			if d > hi {
				hi = d
			}
		}
	}
	for i, r := range runs {
		f := summarize(r.Deltas)
		fmt.Fprintf(w, "  %-12s [%s] med=%.0f q1=%.0f q3=%.0f n=%d\n",
			tools[i].Name(), boxplotLine(f, 0, hi, 48), f.Med, f.Q1, f.Q3, len(r.Deltas))
	}
}

// Figure5a renders the number of detected bugs over time (execution
// count) for MopFuzzer and its variants (Figure 5a).
func Figure5a(w io.Writer, budget Budget) {
	target := jvm.Spec{Impl: buginject.HotSpot, Version: 17}
	tools := []baselines.Tool{
		baselines.NewMopFuzzer(target, nil),
		baselines.NewMopFuzzerG(target, nil),
		baselines.NewMopFuzzerR(target, nil),
	}
	runs := make([]*toolRun, len(tools))
	for i, tool := range tools {
		runs[i] = runSeeds(budget, toolSalt, fixed(tool))
	}
	fmt.Fprintf(w, "Figure 5a: Detected bugs over time (budget %d executions)\n\n", budget.Executions)
	const checkpoints = 8
	header := []string{"Tool"}
	for c := 1; c <= checkpoints; c++ {
		header = append(header, fmt.Sprintf("%d", budget.Executions*c/checkpoints))
	}
	var rows [][]string
	for i, r := range runs {
		row := []string{tools[i].Name()}
		for c := 1; c <= checkpoints; c++ {
			cut := budget.Executions * c / checkpoints
			n := 0
			for _, at := range r.FindingAt {
				if at <= cut {
					n++
				}
			}
			row = append(row, fmt.Sprintf("%d", n))
		}
		rows = append(rows, row)
	}
	table(w, header, rows)
}

// Figure5b renders the overlap of detected bug sets across the variants
// (Figure 5b's Venn counts).
func Figure5b(w io.Writer, budget Budget) {
	target := jvm.Spec{Impl: buginject.HotSpot, Version: 17}
	tools := []baselines.Tool{
		baselines.NewMopFuzzer(target, nil),
		baselines.NewMopFuzzerG(target, nil),
		baselines.NewMopFuzzerR(target, nil),
	}
	names := []string{"MopFuzzer", "MopFuzzer_g", "MopFuzzer_r"}
	sets := make([]map[string]int, len(tools))
	for i, tool := range tools {
		sets[i] = runSeeds(budget, toolSalt, fixed(tool)).detected()
	}
	all := map[string]bool{}
	for _, s := range sets {
		for id := range s {
			all[id] = true
		}
	}
	fmt.Fprintf(w, "Figure 5b: Overlap of detected bugs across variants (budget %d executions)\n\n", budget.Executions)
	region := map[string]int{}
	for id := range all {
		key := ""
		for i := range sets {
			if _, ok := sets[i][id]; ok {
				key += "1"
			} else {
				key += "0"
			}
		}
		region[key]++
	}
	for i, n := range names {
		fmt.Fprintf(w, "  %-12s total %d\n", n, len(sets[i]))
	}
	fmt.Fprintln(w)
	labels := []struct{ key, desc string }{
		{"111", "all three"},
		{"110", names[0] + " ∩ " + names[1] + " only"},
		{"101", names[0] + " ∩ " + names[2] + " only"},
		{"011", names[1] + " ∩ " + names[2] + " only"},
		{"100", names[0] + " only"},
		{"010", names[1] + " only"},
		{"001", names[2] + " only"},
	}
	for _, l := range labels {
		fmt.Fprintf(w, "  %-34s %d\n", l.desc, region[l.key])
	}
}
