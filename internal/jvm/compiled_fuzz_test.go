package jvm

import (
	"errors"
	"math"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/jit"
	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/vm"
)

// FuzzCompiledAgreesWithInterpreter is the differential oracle with the
// seeded bugs disarmed: a program that parses and checks must print the
// same under the pure interpreter, with every method forced to C1 and
// no further, and with every method forced through C1 to C2, the last
// a second time with a collection after every allocation, so a
// reference the collector's roots miss shows up as a reused handle;
// unless a leg ran out of steps or heap (compiled code charges fuel per
// IR node, not per instruction, so its budgets run out elsewhere). Every method
// the JIT emits must pass the bytecode verifier. The seed corpus under
// testdata/fuzz holds the golden programs.
func FuzzCompiledAgreesWithInterpreter(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		p, err := lang.Parse(src)
		if err != nil || lang.Check(p) != nil {
			return
		}
		img, err := bytecode.Compile(p)
		if err != nil {
			return
		}
		legs := []struct {
			name string
			cfg  vm.Config
		}{
			{"interpreter", vm.Config{}},
			{"c1", vm.Config{C1Threshold: 1, C2Threshold: math.MaxInt}},
			{"c2", vm.Config{CompileEager: true}},
			{"c2 collecting after every allocation", vm.Config{CompileEager: true, GCEvery: 1}},
		}
		var ref *vm.Result
		for i, leg := range legs {
			cfg := leg.cfg
			cfg.MaxSteps, cfg.MaxHeapUnits = 200_000, 200_000
			if i > 0 {
				cfg.JIT = verifyingJIT{t: t, Compiler: jit.New(profile.NewRecorder(profile.NoFlags()), nil, nil)}
			}
			res := vm.NewMachine(img, cfg).Run()
			if res.TimedOut || res.HeapExhausted {
				return
			}
			if ref == nil {
				ref = res
			} else if got, want := res.OutputString(), ref.OutputString(); got != want {
				t.Fatalf("%s printed %q, the interpreter %q\n%s", leg.name, got, want, src)
			}
		}
	})
}

// verifyingJIT checks every method the JIT emits against the image.
type verifyingJIT struct {
	*jit.Compiler
	t *testing.T
}

func (v verifyingJIT) Compile(fn *bytecode.Function, tier vm.Tier, m *vm.Machine) (vm.CompiledMethod, error) {
	cm, err := v.Compiler.Compile(fn, tier, m)
	if c, ok := cm.(*jit.Compiled); ok {
		if verr := m.Image().VerifyFunction(c.Code); verr != nil {
			v.t.Errorf("%s at %s: %v\n%s", fn.Key(), tier, verr, bytecode.Disassemble(c.Code))
		}
	}
	var crash *vm.Crash
	if errors.As(err, &crash) && crash.Component == "JIT codegen" {
		v.t.Errorf("%s at %s: %v", fn.Key(), tier, crash.Message)
	}
	return cm, err
}
