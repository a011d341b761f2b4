package jvm

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/buginject"
	"repro/internal/bytecode"
	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/jit"
	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/vm"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestSemanticsGolden pins the observable outcome of the 20 default
// corpus seeds — output and termination status, interpreter steps,
// allocations, GC cycles and leaked monitors — under the pure
// interpreter and under forced C2 compilation. The default GC period
// never fires on these seeds, so both modes also run with a collection
// every 64 allocations. Heap representation, GC cadence and fuel
// accounting may change only if every row stays the same. Regenerate
// with `go test ./internal/jvm -run TestSemanticsGolden -update` when a
// change is meant to alter them.
func TestSemanticsGolden(t *testing.T) {
	var b strings.Builder
	row := func(seed, mode string, res *vm.Result) {
		fmt.Fprintf(&b, "%s %s steps=%d allocs=%d gc=%d leaks=%d out=%q\n",
			seed, mode, res.Steps, res.AllocCount, res.GCCycles, res.MonitorLeaks, res.OutputString())
	}
	spec := Reference()
	for _, s := range corpus.DefaultPool(20, 1) {
		p := s.Parse()
		for _, mode := range []struct {
			name string
			opt  Options
		}{
			{"interp", Options{PureInterpreter: true}},
			{"c2", Options{ForceCompile: true}},
		} {
			r, err := Run(p, spec, mode.opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.Name, mode.name, err)
			}
			row(s.Name, mode.name, r.Result)
		}
		if err := lang.Check(p); err != nil {
			t.Fatal(err)
		}
		img, err := bytecode.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		row(s.Name, "interp/gc64", vm.NewMachine(img, vm.Config{GCEvery: 64}).Run())
		comp := jit.New(profile.NewCounterRecorder(nil), coverage.NewTracker(), buginject.NewInjector(spec.Impl, spec.Version))
		row(s.Name, "c2/gc64", vm.NewMachine(img, vm.Config{GCEvery: 64, CompileEager: true, JIT: comp}).Run())
	}
	path := filepath.Join("testdata", "semantics.golden")
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
