package experiments

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenBudget is small on purpose: the goldens pin every line an
// artifact prints, and a refactor that keeps RNG streams and
// attribution intact keeps them at any budget.
func goldenBudget() Budget { return Budget{Executions: 60, Seeds: 4, Seed: 1} }

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s: first difference at line %d:\n got  %q\n want %q", path, i+1, g, w)
		}
	}
}

// TestExperimentsGolden pins the exact text of every budgeted artifact
// except Figure 1 and the schedule and generator recall tables (which
// TestScheduleLegs and TestGeneratorLegs pin from their own runs) at a
// tiny budget. Each tool's per-seed RNG salt, the seed loop's order and
// the oracle's attribution all show up in these bytes. Regenerate with
// `go test ./internal/experiments -run TestExperimentsGolden -update`
// only when a change is meant to alter an artifact.
func TestExperimentsGolden(t *testing.T) {
	budget := goldenBudget()
	var out strings.Builder
	for _, art := range []struct {
		name string
		run  func(io.Writer, Budget)
	}{
		{"Table 5", Table5},
		{"Table 6", Table6},
		{"Figure 2", Figure2},
		{"Figure 3", Figure3},
		{"Figure 4", Figure4},
		{"Figure 5a", Figure5a},
		{"Figure 5b", Figure5b},
		{"Recall", Recall},
		{"PlanRecall", PlanRecall},
	} {
		fmt.Fprintf(&out, "=== %s\n", art.name)
		art.run(&out, budget)
	}
	checkGolden(t, "experiments.golden", out.String())
}
