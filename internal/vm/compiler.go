package vm

import "repro/internal/bytecode"

// Tier identifies a compilation tier.
type Tier int

// Tiers.
const (
	TierInterpreter Tier = iota
	TierC1
	TierC2
)

func (t Tier) String() string {
	switch t {
	case TierC1:
		return "C1"
	case TierC2:
		return "C2"
	}
	return "interpreter"
}

// CompiledMethod is executable code produced by a JIT tier.
type CompiledMethod interface {
	// Invoke runs the compiled code. args holds the receiver (for
	// instance methods) followed by the declared parameters. The
	// result is the return value (ignored for void methods).
	Invoke(args []Value) (Value, error)
}

// Traps is the JIT runtime of one compiled method on one machine. The
// interpreter calls it when the method's emitted code reaches an
// UncommonTrap instruction: a speculation the compiler made failed.
type Traps interface {
	UncommonTrap(reason string)
}

// Compiler is the JIT interface the machine tiers up through. A nil
// Compiler leaves the machine in pure-interpreter mode.
type Compiler interface {
	// Compile translates fn at the given tier for m. A tier that
	// emits bytecode has m run it with RunCompiled. A returned *Crash
	// error models a compiler crash; any other error is a bailout.
	Compile(fn *bytecode.Function, tier Tier, m *Machine) (CompiledMethod, error)
}

// Env names the machine in Compiler implementations written against
// it; it is *Machine itself, not an interface.
type Env = *Machine
