package jvm

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/buginject"
	"repro/internal/corpus"
	"repro/internal/lang"
)

// TestFuelBoundaryGolden pins where the step and heap budgets cut an
// execution short: the goldenPrograms and the first 5 default corpus
// seeds, under the pure interpreter and under forced C2, with MaxSteps
// swept over 1..300 and over ±3 around the run's unbounded step count,
// and with small MaxHeapUnits caps. Each row holds the output string,
// the steps taken and the timeout and heap-exhaustion flags, so fuel
// accounting may change how it is charged only if every run still stops
// on the same instruction. Regenerate with
// `go test ./internal/jvm -run TestFuelBoundaryGolden -update` only when
// a change is meant to move the boundaries.
func TestFuelBoundaryGolden(t *testing.T) {
	type program struct {
		name string
		src  string
	}
	var progs []program
	for _, g := range goldenPrograms {
		progs = append(progs, program{g.name, g.src})
	}
	for _, s := range corpus.DefaultPool(5, 1) {
		progs = append(progs, program{s.Name, s.Source})
	}
	modes := []struct {
		name string
		opt  Options
	}{
		{"interp", Options{PureInterpreter: true}},
		{"c2", Options{ForceCompile: true}},
	}
	heapCaps := []int64{1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}
	spec := Spec{buginject.HotSpot, 17}
	var b strings.Builder
	for _, s := range progs {
		p, err := lang.Parse(s.src)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for _, mode := range modes {
			run := func(label string, opt Options) int64 {
				r, err := Run(p, spec, opt)
				if err != nil {
					t.Fatalf("%s/%s %s: %v", s.name, mode.name, label, err)
				}
				res := r.Result
				fmt.Fprintf(&b, "%s %s %s steps=%d timeout=%t heap=%t out=%q\n",
					s.name, mode.name, label, res.Steps, res.TimedOut, res.HeapExhausted, res.OutputString())
				return res.Steps
			}
			total := run("full", mode.opt)
			for max := int64(1); max <= 300; max++ {
				opt := mode.opt
				opt.MaxSteps = max
				run(fmt.Sprintf("max=%d", max), opt)
			}
			for max := total - 3; max <= total+3; max++ {
				if max <= 300 {
					continue
				}
				opt := mode.opt
				opt.MaxSteps = max
				run(fmt.Sprintf("max=%d", max), opt)
			}
			for _, hc := range heapCaps {
				opt := mode.opt
				opt.MaxHeapUnits = hc
				run(fmt.Sprintf("heap=%d", hc), opt)
			}
		}
	}
	compareGolden(t, filepath.Join("testdata", "fuel.golden"), b.String())
}

// compareGolden checks got against the golden file at path, or rewrites
// the file under -update, reporting the first differing row.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotRows, wantRows := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i, w := range wantRows {
		if i >= len(gotRows) || gotRows[i] != w {
			g := "<missing>"
			if i < len(gotRows) {
				g = gotRows[i]
			}
			t.Fatalf("%s row %d differs:\n got %s\nwant %s", path, i+1, g, w)
		}
	}
	if len(gotRows) != len(wantRows) {
		t.Fatalf("%s: got %d rows, want %d", path, len(gotRows), len(wantRows))
	}
}
