package jit

import (
	"repro/internal/coverage"
	"repro/internal/profile"
	"repro/internal/vm"
)

// BehaviorNone marks events for optimizations the VM offers no logging
// flag for (de-reflection, per §5.1 of the paper): the event exists for
// white-box consumers (bug predicates), but never reaches the profile log.
const BehaviorNone = profile.Behavior(-1)

// Event is one optimization action taken during a compilation. The
// sequence of events — with each event's structural context — is the
// interaction state that seeded bugs match against.
type Event struct {
	Pass     string
	Behavior profile.Behavior // BehaviorNone when unlogged
	Detail   string

	// Structural context at the site of the action.
	Prov      Prov // provenance union of the nodes involved
	SyncDepth int  // enclosing synchronized nesting
	LoopDepth int  // enclosing loop nesting
}

// Hook observes compilation events. Implementations model compiler
// defects: they may return a *vm.Crash (compiler crash) or corrupt the
// IR through the context (miscompilation). A correct compiler runs with
// no hooks.
type Hook interface {
	Observe(ctx *Context, ev Event) error
}

// EscapeState classifies an allocation per the escape analysis.
type EscapeState int

// Escape states.
const (
	EscapeUnknown EscapeState = iota
	NoEscape
	ArgEscape
	GlobalEscape
)

// Context carries the state of one method compilation through the pass
// pipeline.
type Context struct {
	Fn   *Func
	Tier vm.Tier
	Log  profile.Emitter
	Cov  *coverage.Tracker
	Env  *vm.Machine
	Hook Hook

	// Events in emission order; Counts per behavior.
	Events []Event
	Counts [profile.NumBehaviors]int64

	// Escape holds the escape-analysis classification per local name,
	// filled by the analysis pass, consumed by lock elision and scalar
	// replacement.
	Escape map[string]EscapeState

	// Miscompile effects requested by hooks, honored by the passes and
	// the code generator that own the behavior.
	DropSyncCleanup   bool // next inlined sync region loses its exception cleanup (Listing 1 hazard)
	DropNextStore     bool // redundant-store elimination drops a live store
	SkipCoarsenUnlock bool // coarsening forgets one unlock when merging
	CorruptFold       bool // algebraic folding produces an off-by-one constant

	// coverRec, when non-nil, additionally records every compile-time
	// coverage region name in order (the compile cache's capture channel).
	coverRec *[]string
}

// Cover marks a coverage region (no-op with a nil tracker).
func (c *Context) Cover(name string) {
	if c.coverRec != nil {
		*c.coverRec = append(*c.coverRec, name)
	}
	c.Cov.Hit(name)
}

// Emitf writes a flag-gated profile log line.
func (c *Context) Emitf(flag profile.Flag, format string, args ...any) {
	if c.Log != nil {
		c.Log.Emitf(flag, format, args...)
	}
}

// EmitBehaviorf writes a flag-gated line that the OBV rule table counts
// under the given behaviors, taking the structured fast path when the
// sink supports it.
func (c *Context) EmitBehaviorf(flag profile.Flag, behaviors []profile.Behavior, format string, args ...any) {
	profile.EmitBehavior(c.Log, flag, behaviors, format, args...)
}

// Record appends an event, bumps its behavior count, and lets the hook
// observe it. The returned error, if any, is a compiler crash that must
// abort compilation.
func (c *Context) Record(ev Event) error {
	c.Events = append(c.Events, ev)
	if ev.Behavior >= 0 && int(ev.Behavior) < profile.NumBehaviors {
		c.Counts[ev.Behavior]++
	}
	if c.Hook != nil {
		return c.Hook.Observe(c, ev)
	}
	return nil
}

// Count returns how many events carried the behavior.
func (c *Context) Count(b profile.Behavior) int64 {
	if b < 0 || int(b) >= profile.NumBehaviors {
		return 0
	}
	return c.Counts[b]
}

// ProvUnion returns the union of all event provenance bits.
func (c *Context) ProvUnion() Prov {
	var p Prov
	for _, ev := range c.Events {
		p |= ev.Prov
	}
	return p
}
