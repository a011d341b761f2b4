package experiments

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/coverage"
)

// Figure1 reproduces the case-study curve: Δ(OBV of the i-th mutant,
// OBV of the original seed) over a guided run that ends in a crash,
// with "large jump" iterations marked.
func Figure1(w io.Writer, budget Budget) {
	seeds := corpus.DefaultPool(budget.Seeds, budget.Seed)

	// Find a guided run that crashes after a healthy number of
	// iterations (the paper's case study crashes at mutant 48).
	var best *core.FuzzResult
	parsed := corpus.NewParseCache() // parse each seed once across the search
	for s := int64(0); s < 24; s++ {
		cfg := core.DefaultConfig(hotspot17)
		cfg.Seed = budget.Seed*1000 + s
		cfg.DiffSpecs = nil
		f := core.NewFuzzer(cfg)
		fr, err := f.FuzzSeed("fig1", parsed.Parse(seeds[int(s)%len(seeds)]))
		if err != nil {
			continue
		}
		crashed := slices.ContainsFunc(fr.Findings, func(fd core.BugFinding) bool { return fd.Oracle == "crash" })
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

	// Collect the curve, the mean jump and the scale.
	var deltas, jumps []float64
	prev, meanJump, maxD := 0.0, 0.0, 1.0
	for _, r := range best.Records {
		if r.Skipped {
			continue
		}
		deltas = append(deltas, r.DeltaSeed)
		jumps = append(jumps, r.DeltaSeed-prev)
		meanJump += max(r.DeltaSeed-prev, 0)
		maxD = max(maxD, r.DeltaSeed)
		prev = r.DeltaSeed
	}
	if len(jumps) > 0 {
		meanJump /= float64(len(jumps))
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
	names := []string{"MopFuzzer", "JITFuzz", "Artemis"}
	covs := make([]*coverage.Tracker, len(names))
	for i, name := range names {
		covs[i] = toolCampaign(budget, name, covered).Cov
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
	renderDeltaBoxplots(w, "Figure 3: Euclidean distance of OBV (final mutant vs seed) per tool", budget,
		"MopFuzzer", "JITFuzz", "Artemis")
}

// variants are MopFuzzer and its two ablated variants, the tools
// Figures 4 and 5 compare.
var variants = []string{"MopFuzzer", "MopFuzzer_g", "MopFuzzer_r"}

// variantRuns are the variants' campaigns with bugs armed, which
// Figures 5a and 5b both read.
func variantRuns(budget Budget) []*toolRun {
	runs := make([]*toolRun, len(variants))
	for i, name := range variants {
		runs[i] = toolCampaign(budget, name, armed)
	}
	return runs
}

// Figure4 renders the same distribution for MopFuzzer and its variants
// (Figure 4).
func Figure4(w io.Writer, budget Budget) {
	renderDeltaBoxplots(w, "Figure 4: Euclidean distance of OBV for MopFuzzer and its variants", budget, variants...)
}

// renderDeltaBoxplots runs the named tools' bug-free campaigns and
// renders their final-mutant Δ distributions on one scale.
func renderDeltaBoxplots(w io.Writer, title string, budget Budget, names ...string) {
	fmt.Fprintf(w, "%s (budget %d executions)\n\n", title, budget.Executions)
	runs := make([]*toolRun, len(names))
	hi := 1.0
	for i, name := range names {
		runs[i] = toolCampaign(budget, name, bugFree)
		for _, d := range runs[i].Deltas {
			hi = max(hi, d)
		}
	}
	for i, r := range runs {
		f := summarize(r.Deltas)
		fmt.Fprintf(w, "  %-12s [%s] med=%.0f q1=%.0f q3=%.0f n=%d\n",
			names[i], boxplotLine(f, 0, hi, 48), f.Med, f.Q1, f.Q3, len(r.Deltas))
	}
}

// Figure5a renders the number of detected bugs over time (execution
// count) for MopFuzzer and its variants (Figure 5a).
func Figure5a(w io.Writer, budget Budget) {
	runs := variantRuns(budget)
	fmt.Fprintf(w, "Figure 5a: Detected bugs over time (budget %d executions)\n\n", budget.Executions)
	const checkpoints = 8
	header := []string{"Tool"}
	for c := 1; c <= checkpoints; c++ {
		header = append(header, fmt.Sprintf("%d", budget.Executions*c/checkpoints))
	}
	var rows [][]string
	for i, r := range runs {
		row := []string{variants[i]}
		for c := 1; c <= checkpoints; c++ {
			// FindingAt ascends: count the detections up to the cut.
			n := sort.SearchInts(r.FindingAt, budget.Executions*c/checkpoints+1)
			row = append(row, fmt.Sprintf("%d", n))
		}
		rows = append(rows, row)
	}
	table(w, header, rows)
}

// Figure5b renders the overlap of detected bug sets across the variants
// (Figure 5b's Venn counts).
func Figure5b(w io.Writer, budget Budget) {
	sets := make([]map[string]int, len(variants))
	for i, r := range variantRuns(budget) {
		sets[i] = r.detected()
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
	for i, n := range variants {
		fmt.Fprintf(w, "  %-12s total %d\n", n, len(sets[i]))
	}
	fmt.Fprintln(w)
	labels := []struct{ key, desc string }{
		{"111", "all three"},
		{"110", variants[0] + " ∩ " + variants[1] + " only"},
		{"101", variants[0] + " ∩ " + variants[2] + " only"},
		{"011", variants[1] + " ∩ " + variants[2] + " only"},
		{"100", variants[0] + " only"},
		{"010", variants[1] + " only"},
		{"001", variants[2] + " only"},
	}
	for _, l := range labels {
		fmt.Fprintf(w, "  %-34s %d\n", l.desc, region[l.key])
	}
}
