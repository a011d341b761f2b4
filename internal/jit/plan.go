package jit

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/vm"
)

// Plan makes the pass sequence data instead of code: each tier carries
// an ordered pass list split into a straight-line front slice, a
// bounded fixpoint loop, and a tail, mirroring the shape of the
// hard-coded C1/C2 pipelines this type replaced. The default plan
// reproduces those pipelines exactly (pinned by TestDefaultPlanIsFixedPipeline
// and the golden pass tests); fuzzed plans reorder and drop optional
// passes while preserving each pass's structural preconditions — the
// compilation-plan-fuzzing axis of Graal's MinimalFuzzedCompilationPlan /
// FullFuzzedCompilationPlan, applied to the simulated JIT.
//
// Plans are immutable once built and safe to share across goroutines;
// Validate before use (jvm.Run validates incoming plans once per
// execution, keeping Compile's hot path check-free).
type Plan struct {
	C1 TierPlan `json:"c1"`
	C2 TierPlan `json:"c2"`
}

// TierPlan is one tier's pass schedule. Front runs once; Loop repeats
// up to Rounds times, stopping early when a full round records no new
// optimization events (the iterative-GVN fixpoint the fixed pipeline
// had); Tail runs once after the loop (speculation lives here: traps
// must see the final shape of the code).
type TierPlan struct {
	Front  []string `json:"front,omitempty"`
	Loop   []string `json:"loop,omitempty"`
	Rounds int      `json:"rounds,omitempty"`
	Tail   []string `json:"tail,omitempty"`
}

// PlanMode selects how GeneratePlan builds a plan.
type PlanMode string

const (
	// PlanDefault is the fixed production pipeline.
	PlanDefault PlanMode = "default"
	// PlanMinimal keeps only each tier's mandatory passes plus their
	// structural requirements, in a fuzzed-but-valid order.
	PlanMinimal PlanMode = "minimal"
	// PlanFull starts from the minimal set and inserts optional passes
	// at random valid positions, with a fuzzed loop split and round
	// budget — the ordering-interaction search space.
	PlanFull PlanMode = "full"
)

// ParsePlanMode parses the -plan-fuzz CLI/JobSpec value. "" and "off"
// both mean plan fuzzing disabled (nil mode is represented by callers
// not generating plans at all).
func ParsePlanMode(s string) (PlanMode, error) {
	switch s {
	case "", "off":
		return PlanDefault, nil
	case "minimal":
		return PlanMinimal, nil
	case "full":
		return PlanFull, nil
	}
	return "", fmt.Errorf("jit: unknown plan mode %q (want off, minimal, or full)", s)
}

// passInfo describes one optimization pass to the plan machinery: how
// to run it, which tiers may schedule it, whether a tier must schedule
// it, and which passes must already have run in the same compilation
// (structural preconditions — e.g. scalar replacement consumes the
// escape states EA computes).
type passInfo struct {
	run func(c *Compiler, ctx *Context) error
	// tiers flags which tier may schedule the pass.
	c1, c2 bool
	// mandatory flags the tiers that must schedule the pass (the
	// minimal-plan seed set).
	mandatoryC1, mandatoryC2 bool
	// requires lists passes that must appear earlier in the tier's
	// flattened first-round order. Requirements naming passes the tier
	// cannot schedule are vacuous there (C1 has no dereflect, so C1
	// inline carries no dereflect requirement).
	requires []string
	// tailOnly restricts the pass to the Tail slot (speculation must
	// observe the final code shape).
	tailOnly bool
}

// tierPrefix renders the tier tag the logging passes embed in events.
func tierPrefix(t vm.Tier) string {
	if t == vm.TierC1 {
		return "c1"
	}
	return "c2"
}

// passTable is the pass registry. Names are stable wire/API identifiers:
// they appear in serialized plans, plan fingerprints, and cache keys.
var passTable = map[string]*passInfo{
	"inline": {
		c1: true, c2: true, mandatoryC1: true, mandatoryC2: true,
		requires: []string{"dereflect"}, // C2: the parser only sees direct calls after strength-reduction
		run: func(c *Compiler, ctx *Context) error {
			if ctx.Tier == vm.TierC1 {
				return passInline(ctx, inlineBudgetC1)
			}
			budget := c.Opt.InlineBudgetC2
			if budget == 0 {
				budget = 64
			}
			return passInline(ctx, budget)
		},
	},
	"algebra": {
		c1: true, c2: true,
		run: func(c *Compiler, ctx *Context) error { return passAlgebra(ctx, tierPrefix(ctx.Tier)) },
	},
	"rse": {
		c1: true, c2: true,
		run: func(c *Compiler, ctx *Context) error { return passRSE(ctx, tierPrefix(ctx.Tier)) },
	},
	"dce": {
		c1: true, c2: true, mandatoryC1: true, mandatoryC2: true,
		run: func(c *Compiler, ctx *Context) error { return passDCE(ctx, tierPrefix(ctx.Tier)) },
	},
	"dereflect": {
		c2:  true,
		run: func(c *Compiler, ctx *Context) error { return passDereflect(ctx) },
	},
	"escape_analysis": {
		c2:  true,
		run: func(c *Compiler, ctx *Context) error { return passEscapeAnalysis(ctx) },
	},
	"lock_elide": {
		c2:       true,
		requires: []string{"escape_analysis"}, // elision consults the escape states
		run:      func(c *Compiler, ctx *Context) error { return passLockElide(ctx) },
	},
	"scalar_replace": {
		c2:       true,
		requires: []string{"escape_analysis"}, // bails without escape states
		run:      func(c *Compiler, ctx *Context) error { return passScalarReplace(ctx) },
	},
	"autobox": {
		c2:  true,
		run: func(c *Compiler, ctx *Context) error { return passAutobox(ctx) },
	},
	"nested_locks": {
		c2:  true,
		run: func(c *Compiler, ctx *Context) error { return passNestedLocks(ctx) },
	},
	"gvn": {
		c2: true, mandatoryC2: true,
		run: func(c *Compiler, ctx *Context) error { return passGVN(ctx) },
	},
	"loop_peel": {
		c2:  true,
		run: func(c *Compiler, ctx *Context) error { return passLoopPeel(ctx) },
	},
	"loop_unswitch": {
		c2:  true,
		run: func(c *Compiler, ctx *Context) error { return passLoopUnswitch(ctx) },
	},
	"loop_unroll": {
		c2:  true,
		run: func(c *Compiler, ctx *Context) error { return passLoopUnroll(ctx) },
	},
	"lock_coarsen": {
		c2:  true,
		run: func(c *Compiler, ctx *Context) error { return passLockCoarsen(ctx) },
	},
	"traps": {
		c2: true, tailOnly: true,
		run: func(c *Compiler, ctx *Context) error { return passTraps(ctx) },
	},
}

// passOrder is the registry iteration order (deterministic generation
// must not depend on Go's randomized map order). It is also the fixed
// pipeline's relative order, which documents each pass's home position.
var passOrder = []string{
	"dereflect", "inline", "escape_analysis", "lock_elide", "scalar_replace",
	"autobox", "nested_locks", "gvn", "algebra", "loop_peel", "loop_unswitch",
	"loop_unroll", "lock_coarsen", "rse", "dce", "traps",
}

// allowedIn reports whether the named pass may be scheduled in tier t.
func (pi *passInfo) allowedIn(t vm.Tier) bool {
	if t == vm.TierC1 {
		return pi.c1
	}
	return pi.c2
}

// defaultPlan is the shared immutable fixed pipeline.
var defaultPlan = &Plan{
	C1: TierPlan{
		Front: []string{"inline", "algebra", "rse", "dce"},
	},
	C2: TierPlan{
		Front: []string{"dereflect", "inline", "escape_analysis", "lock_elide",
			"scalar_replace", "autobox"},
		Loop: []string{"nested_locks", "gvn", "algebra", "loop_peel",
			"loop_unswitch", "loop_unroll", "lock_coarsen", "rse", "dce"},
		Rounds: 4,
		Tail:   []string{"traps"},
	},
}

// DefaultPlan returns the fixed production pipeline as a plan. The
// returned value is shared — treat it as immutable (Clone to modify).
func DefaultPlan() *Plan { return defaultPlan }

// Clone deep-copies the plan.
func (p *Plan) Clone() *Plan {
	cp := &Plan{C1: p.C1.clone(), C2: p.C2.clone()}
	return cp
}

func (tp TierPlan) clone() TierPlan {
	return TierPlan{
		Front:  append([]string(nil), tp.Front...),
		Loop:   append([]string(nil), tp.Loop...),
		Rounds: tp.Rounds,
		Tail:   append([]string(nil), tp.Tail...),
	}
}

// Tier selects the tier's schedule.
func (p *Plan) Tier(t vm.Tier) *TierPlan {
	if t == vm.TierC1 {
		return &p.C1
	}
	return &p.C2
}

// flat returns the tier's flattened first-round pass order — the order
// precondition checks run against.
func (tp *TierPlan) flat() []string {
	out := make([]string, 0, len(tp.Front)+len(tp.Loop)+len(tp.Tail))
	out = append(out, tp.Front...)
	out = append(out, tp.Loop...)
	out = append(out, tp.Tail...)
	return out
}

// Validate checks the plan against the registry: every pass known and
// allowed in its tier, no duplicates within a tier, loop shape
// consistent, tail-only passes in Tail, and every pass's structural
// requirements scheduled earlier in the flattened first-round order.
func (p *Plan) Validate() error {
	if err := p.C1.validate(vm.TierC1); err != nil {
		return fmt.Errorf("c1: %w", err)
	}
	if err := p.C2.validate(vm.TierC2); err != nil {
		return fmt.Errorf("c2: %w", err)
	}
	return nil
}

func (tp *TierPlan) validate(t vm.Tier) error {
	if len(tp.Loop) > 0 && tp.Rounds < 1 {
		return fmt.Errorf("loop has %d passes but rounds=%d", len(tp.Loop), tp.Rounds)
	}
	if len(tp.Loop) == 0 && tp.Rounds != 0 {
		return fmt.Errorf("rounds=%d with an empty loop", tp.Rounds)
	}
	seen := map[string]bool{}
	inTail := map[string]bool{}
	for _, name := range tp.Tail {
		inTail[name] = true
	}
	for i, name := range tp.flat() {
		pi := passTable[name]
		if pi == nil {
			return fmt.Errorf("unknown pass %q at position %d", name, i)
		}
		if !pi.allowedIn(t) {
			return fmt.Errorf("pass %q is not allowed in this tier", name)
		}
		if pi.tailOnly && !inTail[name] {
			return fmt.Errorf("pass %q may only appear in the tail", name)
		}
		if seen[name] {
			return fmt.Errorf("pass %q scheduled twice (rounds provide repetition)", name)
		}
		for _, req := range pi.requires {
			rp := passTable[req]
			if rp == nil || !rp.allowedIn(t) {
				continue // vacuous in this tier
			}
			if !seen[req] {
				return fmt.Errorf("pass %q requires %q earlier in the schedule", name, req)
			}
		}
		seen[name] = true
	}
	return nil
}

// Fingerprint renders the canonical plan identity: every pass in
// schedule order plus the loop shape. Equal fingerprints mean equal
// compilation behavior, which is why the compile cache keys on it.
func (p *Plan) Fingerprint() string {
	var b strings.Builder
	b.WriteString("plan.v1")
	writeTier := func(tag string, tp *TierPlan) {
		b.WriteString("|")
		b.WriteString(tag)
		b.WriteString(":f=")
		b.WriteString(strings.Join(tp.Front, ","))
		b.WriteString(";l=")
		b.WriteString(strings.Join(tp.Loop, ","))
		b.WriteString(";r=")
		b.WriteString(strconv.Itoa(tp.Rounds))
		b.WriteString(";t=")
		b.WriteString(strings.Join(tp.Tail, ","))
	}
	writeTier("c1", &p.C1)
	writeTier("c2", &p.C2)
	return b.String()
}

// ShortID is a compact stable identifier (16 hex digits of the
// fingerprint's fnv64a) for display, triage keys, and checkpoints,
// where the full fingerprint would bloat every record.
func (p *Plan) ShortID() string {
	h := fnv.New64a()
	h.Write([]byte(p.Fingerprint()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// PlanID names a possibly-nil plan: "default" for nil (the fixed
// pipeline), the ShortID otherwise. The identity every layer uses when
// recording plan provenance.
func PlanID(p *Plan) string {
	if p == nil {
		return "default"
	}
	return p.ShortID()
}

// GeneratePlan deterministically builds a plan from a seed. The same
// (seed, mode) always yields the same plan on every platform and
// GOMAXPROCS setting — plan generation is part of the campaign's
// reproducible random stream. PlanDefault ignores the seed.
func GeneratePlan(seed int64, mode PlanMode) *Plan {
	if mode == PlanDefault || mode == "" {
		return DefaultPlan()
	}
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{
		C1: generateTier(rng, vm.TierC1, mode),
		C2: generateTier(rng, vm.TierC2, mode),
	}
	return p
}

// generateTier builds one tier's schedule: select the pass set
// (mandatory + requirement closure, plus optional passes under
// PlanFull), emit a random topological order over the requires
// relation, then fuzz the loop split and round budget (C2 full plans
// only — the client tier stays straight-line, like C1 itself).
func generateTier(rng *rand.Rand, t vm.Tier, mode PlanMode) TierPlan {
	include := map[string]bool{}
	var addWithReqs func(name string)
	addWithReqs = func(name string) {
		if include[name] {
			return
		}
		include[name] = true
		for _, req := range passTable[name].requires {
			if rp := passTable[req]; rp != nil && rp.allowedIn(t) {
				addWithReqs(req)
			}
		}
	}
	for _, name := range passOrder {
		pi := passTable[name]
		if !pi.allowedIn(t) || pi.tailOnly {
			continue
		}
		mandatory := pi.mandatoryC1
		if t == vm.TierC2 {
			mandatory = pi.mandatoryC2
		}
		if mandatory {
			addWithReqs(name)
		} else if mode == PlanFull && rng.Intn(4) > 0 { // keep ~3/4 of the optional passes
			addWithReqs(name)
		}
	}

	// Random topological order: repeatedly pick a random pass whose
	// requirements are already placed.
	var order []string
	placed := map[string]bool{}
	for len(order) < len(include) {
		var ready []string
		for _, name := range passOrder {
			if !include[name] || placed[name] {
				continue
			}
			ok := true
			for _, req := range passTable[name].requires {
				if rp := passTable[req]; rp != nil && rp.allowedIn(t) && include[req] && !placed[req] {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, name)
			}
		}
		pick := ready[rng.Intn(len(ready))]
		order = append(order, pick)
		placed[pick] = true
	}

	tp := TierPlan{Front: order}
	if t == vm.TierC2 && mode == PlanFull {
		// Fuzz the loop structure: a random suffix of the order becomes
		// the fixpoint loop (split preserves the topological order, so
		// preconditions keep holding), with a random round budget.
		if split := rng.Intn(len(order) + 1); split < len(order) {
			tp.Front = order[:split]
			tp.Loop = order[split:]
			tp.Rounds = 1 + rng.Intn(4)
		}
		if rng.Intn(2) == 0 {
			tp.Tail = []string{"traps"}
		}
	}
	return tp
}
