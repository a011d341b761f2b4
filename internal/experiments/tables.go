package experiments

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/baselines"
	"repro/internal/buginject"
	"repro/internal/jvm"
)

// Table2 renders the status of reported bugs (paper Table 2). The
// catalog is the ground-truth outcome of the simulated three-month
// campaign, so the table is computed from it; a budgeted campaign's
// detection coverage is appended for context when requested elsewhere.
func Table2(w io.Writer) {
	count := func(impl buginject.Impl, pred func(*buginject.Bug) bool) int {
		n := 0
		for _, b := range buginject.Catalog {
			if b.Impl == impl && pred(b) {
				n++
			}
		}
		return n
	}
	row := func(name string, pred func(*buginject.Bug) bool) []string {
		hs := count(buginject.HotSpot, pred)
		j9 := count(buginject.OpenJ9, pred)
		return []string{name, fmt.Sprint(hs), fmt.Sprint(j9), fmt.Sprint(hs + j9)}
	}
	fmt.Fprintln(w, "Table 2: Status of the reported bugs")
	fmt.Fprintln(w)
	rows := [][]string{
		row("Confirmed", func(*buginject.Bug) bool { return true }),
		row("In Progress", func(b *buginject.Bug) bool { return b.Status == buginject.InProgress }),
		row("Fixed", func(b *buginject.Bug) bool { return b.Status == buginject.Fixed }),
		row("Duplicate", func(b *buginject.Bug) bool { return b.Status == buginject.Duplicate }),
		row("Not Backportable", func(b *buginject.Bug) bool { return b.Status == buginject.NotBackportable }),
		row("Crash", func(b *buginject.Bug) bool { return b.Kind == buginject.Crash }),
		row("Miscompilation", func(b *buginject.Bug) bool { return b.Kind == buginject.Miscompile }),
	}
	table(w, []string{"Category", "OpenJDK", "OpenJ9", "Total"}, rows)
}

// Table3 renders the bug distribution across OpenJDK versions (Table 3).
func Table3(w io.Writer) {
	versions := []int{8, 11, 17, 21, 23}
	names := []string{"JDK-8", "JDK-11", "JDK-17", "JDK-21", "Mainline"}
	bugs := make([]string, len(versions))
	nb := make([]string, len(versions))
	for i, v := range versions {
		b, n := 0, 0
		for _, bug := range buginject.Catalog {
			if bug.Impl != buginject.HotSpot || !bug.In(v) {
				continue
			}
			b++
			if bug.Status == buginject.NotBackportable {
				n++
			}
		}
		bugs[i] = fmt.Sprint(b)
		nb[i] = fmt.Sprint(n)
	}
	fmt.Fprintln(w, "Table 3: Distribution of detected bugs across OpenJDK LTS and mainline versions")
	fmt.Fprintln(w)
	table(w, append([]string{"Affected Version"}, names...), [][]string{
		append([]string{"#Bugs"}, bugs...),
		append([]string{"#Not Backportable"}, nb...),
	})
}

// Table4 renders the affected JIT components (Table 4).
func Table4(w io.Writer) {
	tally := func(impl buginject.Impl) ([]string, map[string]int) {
		counts := map[string]int{}
		var order []string
		for _, b := range buginject.Catalog {
			if b.Impl != impl {
				continue
			}
			if counts[b.Component] == 0 {
				order = append(order, b.Component)
			}
			counts[b.Component]++
		}
		sort.SliceStable(order, func(i, j int) bool { return counts[order[i]] > counts[order[j]] })
		return order, counts
	}
	hsOrder, hs := tally(buginject.HotSpot)
	j9Order, j9 := tally(buginject.OpenJ9)
	fmt.Fprintln(w, "Table 4: Distribution of the affected JIT components")
	fmt.Fprintln(w)
	n := len(hsOrder)
	if len(j9Order) > n {
		n = len(j9Order)
	}
	rows := make([][]string, n)
	for i := 0; i < n; i++ {
		row := []string{"", "", "", ""}
		if i < len(hsOrder) {
			row[0], row[1] = hsOrder[i], fmt.Sprint(hs[hsOrder[i]])
		}
		if i < len(j9Order) {
			row[2], row[3] = j9Order[i], fmt.Sprint(j9[j9Order[i]])
		}
		rows[i] = row
	}
	table(w, []string{"HotSpot Component", "#", "OpenJ9 Component", "#"}, rows)
}

// Table5 runs a detection campaign and renders the top mutators and
// mutator pairs involved in bug-triggering test cases (Table 5).
func Table5(w io.Writer, budget Budget) {
	// Cycle targets across versions and implementations so version-
	// specific bugs are reachable, as in the three-month campaign.
	targets := jvm.AllSpecs()
	findings := once(budget, "Table 5", table5Salt, func() *toolRun {
		return runSeeds(budget, table5Salt, func(idx int64, i int) baselines.Tool {
			return baselines.NewMopFuzzer(targets[(int(idx)+i)%len(targets)], nil)
		})
	}).Findings

	fmt.Fprintf(w, "Table 5: Top mutators and mutator pairs in the %d bug-triggering test cases\n", len(findings))
	fmt.Fprintf(w, "(campaign budget: %d executions over %d seeds)\n\n", budget.Executions, budget.Seeds)
	if len(findings) == 0 {
		fmt.Fprintln(w, "  no bugs detected within budget; increase -budget")
		return
	}

	single := map[string]int{}
	pairs := map[string]int{}
	for _, f := range findings {
		ms := slices.Clone(f.Mutators)
		slices.Sort(ms)
		ms = slices.Compact(ms)
		for i, a := range ms {
			single[a]++
			for _, b := range ms[i+1:] {
				pairs[a+" + "+b]++
			}
		}
	}
	top := func(m map[string]int, k int) []string {
		var keys []string
		for key := range m {
			keys = append(keys, key)
		}
		sort.Slice(keys, func(i, j int) bool {
			if m[keys[i]] != m[keys[j]] {
				return m[keys[i]] > m[keys[j]]
			}
			return keys[i] < keys[j]
		})
		if len(keys) > k {
			keys = keys[:k]
		}
		return keys
	}
	n := float64(len(findings))
	var rows [][]string
	topSingle := top(single, 5)
	topPairs := top(pairs, 5)
	for i := 0; i < 5; i++ {
		row := []string{"", "", "", ""}
		if i < len(topSingle) {
			row[0] = topSingle[i]
			row[1] = fmt.Sprintf("%.1f%%", 100*float64(single[topSingle[i]])/n)
		}
		if i < len(topPairs) {
			row[2] = topPairs[i]
			row[3] = fmt.Sprintf("%.1f%%", 100*float64(pairs[topPairs[i]])/n)
		}
		rows = append(rows, row)
	}
	table(w, []string{"Top Mutators", "Ratio", "Top Mutator Pairs", "Ratio"}, rows)
}

// Table6 compares bug detection across MopFuzzer, Artemis, and JITFuzz
// under the same seed pool and execution budget on OpenJDK 17 (Table 6).
func Table6(w io.Writer, budget Budget) {
	names := []string{"MopFuzzer", "Artemis", "JITFuzz"}
	runs := make([]*toolRun, len(names))
	for i, name := range names {
		runs[i] = toolCampaign(budget, name, covered)
	}

	// finders counts the tools that found each bug.
	finders := map[string]int{}
	for _, r := range runs {
		for _, f := range r.Findings {
			finders[f.Bug.ID]++
		}
	}
	// Rows: the union of components any tool hit, then the total. A
	// cell counts the tool's bugs and, bracketed, those no other tool
	// found.
	var comps []string
	found := make([]map[string]int, len(runs))
	unique := make([]map[string]int, len(runs))
	for i, r := range runs {
		found[i], unique[i] = map[string]int{}, map[string]int{}
		for _, f := range r.Findings {
			if !slices.Contains(comps, f.Bug.Component) {
				comps = append(comps, f.Bug.Component)
			}
			for _, row := range []string{f.Bug.Component, "Total"} {
				found[i][row]++
				if finders[f.Bug.ID] == 1 {
					unique[i][row]++
				}
			}
		}
	}
	sort.Strings(comps)

	fmt.Fprintf(w, "Table 6: Bug detection within the same budget (%d executions) on %s\n", budget.Executions, hotspot17.Name())
	fmt.Fprintln(w, "(bracketed numbers are bugs uniquely detected by that tool)")
	fmt.Fprintln(w)
	var rows [][]string
	for _, c := range append(comps, "Total") {
		row := []string{c}
		for i := range runs {
			row = append(row, fmt.Sprintf("%d (%d)", found[i][c], unique[i][c]))
		}
		rows = append(rows, row)
	}
	table(w, append([]string{"Components"}, names...), rows)
}
