package jit

import (
	"repro/internal/bytecode"
	"repro/internal/coverage"
	"repro/internal/profile"
	"repro/internal/vm"
)

// Compiled is a compiled method on one machine: the code a tier
// emitted for it, linked into the machine's image, plus the runtime
// state that code runs with. Running it is running "compiled code"; any
// divergence from the bytecode interpreter on the same program is a
// miscompilation. The code is shared (a compile cache hands it to every
// run of the program); the trap count is this machine's. Cov marks
// runtime coverage regions and may be nil (Tracker.Hit is nil-safe).
type Compiled struct {
	Code *bytecode.Function
	Env  *vm.Machine
	Log  profile.Emitter
	Cov  *coverage.Tracker

	trapCount int
	trapLimit int
}

// Invoke implements vm.CompiledMethod: the machine runs the emitted
// code as a compiled frame.
func (c *Compiled) Invoke(args []vm.Value) (vm.Value, error) {
	return c.Env.RunCompiled(c.Code, args, c)
}

// UncommonTrap implements vm.Traps. A compiled speculation failed at
// runtime: log the trap and count it; the code then runs the original
// statement. Too many traps invalidate the compiled code, so the method
// recompiles without the speculation.
func (c *Compiled) UncommonTrap(reason string) {
	c.trapCount++
	profile.EmitBehavior(c.Log, profile.FlagTraceDeoptimization, profile.LineUncommonTrap,
		"Uncommon trap occurred in %s reason=%s", c.Code.Key(), reason)
	c.Cov.Hit("c2.traps.fire")
	c.Cov.Hit("runtime.deopt")
	if c.trapLimit > 0 && c.trapCount >= c.trapLimit {
		c.Env.InvalidateCode(c.Code.Key())
	}
}
