package jvm

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/buginject"
	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/lang"
)

// TestCoverageGolden pins the coverage regions an execution marks when
// its caller asks for coverage: the sorted Tracker.Names() of the 20
// default corpus seeds and the goldenPrograms, on openjdk-17 under the
// pure interpreter and forced C2, and on openj9-17 under forced C2.
// Runs that pass no tracker may skip the instrumentation entirely; runs
// that pass one must keep marking exactly these regions. Regenerate
// with `go test ./internal/jvm -run TestCoverageGolden -update` only
// when a change is meant to alter them.
func TestCoverageGolden(t *testing.T) {
	type program struct {
		name string
		src  string
	}
	var progs []program
	for _, s := range corpus.DefaultPool(20, 1) {
		progs = append(progs, program{s.Name, s.Source})
	}
	for _, g := range goldenPrograms {
		progs = append(progs, program{g.name, g.src})
	}
	modes := []struct {
		name string
		spec Spec
		opt  Options
	}{
		{"openjdk-17/interp", Spec{buginject.HotSpot, 17}, Options{PureInterpreter: true}},
		{"openjdk-17/c2", Spec{buginject.HotSpot, 17}, Options{ForceCompile: true}},
		{"openj9-17/c2", Spec{buginject.OpenJ9, 17}, Options{ForceCompile: true}},
	}
	var b strings.Builder
	for _, s := range progs {
		for _, mode := range modes {
			p, err := lang.Parse(s.src)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			opt := mode.opt
			opt.Coverage = coverage.NewTracker()
			if _, err := Run(p, mode.spec, opt); err != nil {
				t.Fatalf("%s/%s: %v", s.name, mode.name, err)
			}
			names := opt.Coverage.Names()
			fmt.Fprintf(&b, "%s %s n=%d %s\n", s.name, mode.name, len(names), strings.Join(names, ","))
		}
	}
	path := filepath.Join("testdata", "coverage.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotRows, wantRows := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i, w := range wantRows {
		if i >= len(gotRows) || gotRows[i] != w {
			g := "<missing>"
			if i < len(gotRows) {
				g = gotRows[i]
			}
			t.Fatalf("row %d differs:\n got %s\nwant %s", i+1, g, w)
		}
	}
	if len(gotRows) != len(wantRows) {
		t.Fatalf("got %d rows, want %d", len(gotRows), len(wantRows))
	}
}
