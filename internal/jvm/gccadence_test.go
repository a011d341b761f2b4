package jvm

import (
	"math"
	"regexp"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/corpus"
	"repro/internal/jit"
	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/vm"
)

// driverLoop matches a corpus seed's driver loop bound, which
// TestOutputIndependentOfGCCadence cuts to a few trips.
var driverLoop = regexp.MustCompile(`(for \(int i = 0; i < )\d+(; i \+= 1\) \{\n\s*total = total \+ t\.work\(i\);)`)

// TestOutputIndependentOfGCCadence is the oracle for the heap's
// handles: a collection lets the machine reuse the handle of every cell
// it cannot reach, so a reference the machine keeps somewhere its roots
// do not cover would surface as a cell that changes under the program.
// With the seeded bugs disarmed, every program must print the same and
// take the same steps whether collections run after every allocation,
// every second or third one, or at the default period, under the
// interpreter, forced C1 and forced C2. The programs are the stack-root
// and semantics golden programs and the 20 default corpus seeds, their
// driver loops cut to four trips.
func TestOutputIndependentOfGCCadence(t *testing.T) {
	type program struct{ name, src string }
	var progs []program
	for _, g := range stackRootPrograms {
		progs = append(progs, program{g.name, g.src})
	}
	for _, g := range goldenPrograms {
		progs = append(progs, program{g.name, g.src})
	}
	for _, s := range corpus.DefaultPool(20, 1) {
		src := driverLoop.ReplaceAllString(s.Source, "${1}4${2}")
		if src == s.Source {
			t.Fatalf("%s: no driver loop to cut", s.Name)
		}
		progs = append(progs, program{s.Name, src})
	}
	modes := []struct {
		name string
		cfg  vm.Config
	}{
		{"interpreter", vm.Config{}},
		{"c1", vm.Config{C1Threshold: 1, C2Threshold: math.MaxInt}},
		{"c2", vm.Config{CompileEager: true}},
	}
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
			var ref *vm.Result
			for _, every := range []int{0, 1, 2, 3} {
				cfg := mode.cfg
				cfg.GCEvery = every
				if mode.name != "interpreter" {
					cfg.JIT = jit.New(profile.NewRecorder(profile.NoFlags()), nil, nil)
				}
				res := vm.NewMachine(img, cfg).Run()
				if every == 1 && res.GCCycles != res.AllocCount {
					t.Errorf("%s %s: %d collections for %d allocations at GCEvery 1", g.name, mode.name, res.GCCycles, res.AllocCount)
				}
				if ref == nil {
					ref = res
					continue
				}
				if got, want := res.OutputString(), ref.OutputString(); got != want || res.Steps != ref.Steps {
					t.Errorf("%s %s GCEvery %d: steps %d out %q; at the default period steps %d out %q",
						g.name, mode.name, every, res.Steps, got, ref.Steps, want)
				}
			}
		}
	}
}
