package experiments

import (
	"strings"
	"testing"
)

func tiny() Budget { return Budget{Executions: 120, Seeds: 4, Seed: 1} }

func render(t *testing.T, f func(b *strings.Builder)) string {
	t.Helper()
	var b strings.Builder
	f(&b)
	out := b.String()
	if out == "" {
		t.Fatal("empty artifact")
	}
	return out
}

func TestTable2MatchesPaper(t *testing.T) {
	out := render(t, func(b *strings.Builder) { Table2(b) })
	for _, want := range []string{
		"Confirmed         45       14      59",
		"In Progress       19       9       28",
		"Fixed             7        4       11",
		"Not Backportable  14       0       14",
		"Crash             39       2       41",
		"Miscompilation    6        12      18",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	out := render(t, func(b *strings.Builder) { Table3(b) })
	if !strings.Contains(out, "26     9       13      9       12") {
		t.Errorf("Table 3 row wrong:\n%s", out)
	}
	if !strings.Contains(out, "12     2       0       0       0") {
		t.Errorf("Table 3 not-backportable row wrong:\n%s", out)
	}
}

func TestTable4MatchesPaper(t *testing.T) {
	out := render(t, func(b *strings.Builder) { Table4(b) })
	for _, want := range []string{
		"Global Value Number., C2   10",
		"Redundancy Elimination  4",
		"Cond. Const. Prop., C2     1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure2ProducesCoverage(t *testing.T) {
	out := render(t, func(b *strings.Builder) { Figure2(b, tiny()) })
	for _, comp := range []string{"C1", "C2", "Runtime", "GC", "Summary"} {
		if !strings.Contains(out, comp) {
			t.Errorf("Figure 2 missing %s row:\n%s", comp, out)
		}
	}
	// Every tool should cover a meaningful slice of C2 even at tiny
	// budgets (the pipeline's unconditional regions).
	if strings.Contains(out, " 0.0%") && strings.Count(out, " 0.0%") > 4 {
		t.Errorf("suspiciously empty coverage:\n%s", out)
	}
}

func TestStatsHelpers(t *testing.T) {
	f := summarize([]float64{1, 2, 3, 4, 100})
	if f.Min != 1 || f.Max != 100 || f.Med != 3 {
		t.Errorf("summarize = %+v", f)
	}
	line := boxplotLine(f, 0, 100, 40)
	if len(line) != 40 || !strings.Contains(line, "|") {
		t.Errorf("boxplot = %q", line)
	}
	if summarize(nil) != (fiveNum{}) {
		t.Error("empty summary should be zero")
	}
}
