package jvm

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/buginject"
	"repro/internal/bytecode"
	"repro/internal/corpus"
	"repro/internal/jit"
	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/vm"
)

// TestCompiledRuntimeGolden pins what the runtime sees while compiled
// code runs: the stackRootPrograms, the goldenPrograms and the first 5
// default corpus seeds on a vm.Machine with the openjdk-17 JIT attached
// (its seeded bugs armed), under forced C2 and under default tiering,
// with a collection every 1, 2 and 3 allocations. Each row holds the
// steps, the output, the final tier of every method, every method's
// invocation, backedge and deopt counts, the monitors still held at
// exit and the OnGC(live, freed) sequence, so a compiled frame that
// adds or drops a GC root, counts a backedge, or releases a monitor
// differently changes a row. TestOperandStackRootsGolden pins the same
// for the interpreter alone. Regenerate with
// `go test ./internal/jvm -run TestCompiledRuntimeGolden -update` only
// when a change is meant to alter them.
func TestCompiledRuntimeGolden(t *testing.T) {
	type program struct{ name, src string }
	var progs []program
	for _, g := range stackRootPrograms {
		progs = append(progs, program{g.name, g.src})
	}
	for _, g := range goldenPrograms {
		progs = append(progs, program{g.name, g.src})
	}
	for _, s := range corpus.DefaultPool(5, 1) {
		progs = append(progs, program{s.Name, s.Source})
	}
	modes := []struct {
		name  string
		eager bool
	}{{"c2", true}, {"tiered", false}}
	var b strings.Builder
	for _, g := range progs {
		p, err := lang.Parse(g.src)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if err := lang.Check(p); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		img, err := bytecode.Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for _, mode := range modes {
			for every := 1; every <= 3; every++ {
				var cycles []string
				comp := jit.New(profile.NewRecorder(profile.NoFlags()), nil, buginject.NewInjector(buginject.HotSpot, 17))
				m := vm.NewMachine(img, vm.Config{
					JIT:          comp,
					CompileEager: mode.eager,
					GCEvery:      every,
					OnGC:         func(live, freed int) { cycles = append(cycles, fmt.Sprintf("%d/%d", live, freed)) },
				})
				res := m.Run()
				var tiers, profs []string
				for key, tier := range res.Tiers {
					tiers = append(tiers, key+":"+tier.String())
				}
				sort.Strings(tiers)
				for _, fn := range img.Functions() {
					pr := m.Profile(fn.Key())
					profs = append(profs, fmt.Sprintf("%s:%d/%d/%d", fn.Key(), pr.Invocations, pr.Backedges, pr.Deopts))
				}
				fmt.Fprintf(&b, "%s %s every=%d steps=%d held=%d out=%q tiers=%s prof=%s gc=%s\n",
					g.name, mode.name, every, res.Steps, res.MonitorLeaks, res.OutputString(),
					strings.Join(tiers, ","), strings.Join(profs, ","), strings.Join(cycles, ","))
			}
		}
	}
	compareGolden(t, filepath.Join("testdata", "compiled.golden"), b.String())
}
