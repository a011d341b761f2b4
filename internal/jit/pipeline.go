package jit

import (
	"fmt"

	"repro/internal/bytecode"
	"repro/internal/coverage"
	"repro/internal/profile"
	"repro/internal/vm"
)

// inlineBudgetC1 is the node budget for C1 inlining.
const inlineBudgetC1 = 16

// Options tunes the compiler pipelines.
type Options struct {
	InlineBudgetC2 int // node budget for C2 inlining (default 64)
	TrapLimit      int // runtime traps before invalidation (default 2)
}

// DefaultOptions returns the production pipeline configuration.
func DefaultOptions() Options {
	return Options{InlineBudgetC2: 64, TrapLimit: 2}
}

// Compiler is the simulated JIT. It implements vm.Compiler: the machine
// hands it hot methods; it lowers, optimizes, and returns executable
// compiled code. Log, Cov, and Hook are shared per-execution channels.
type Compiler struct {
	Log  *profile.Recorder
	Cov  *coverage.Tracker
	Hook Hook
	Opt  Options

	// OnCompiled, if set, observes each finished compilation context,
	// once per compilation, cache hits included (jvm.run counts
	// compilations with it; tests inspect events and counts). A context
	// replayed from the cache has Fn == nil: entries keep no IR.
	OnCompiled func(*Context)

	// Cache, when non-nil, reuses compilations across executions of one
	// program (the legs of a differential sharing the cache), which
	// CacheSalt must identify: the cache holds one salt's compilations.
	// It is consulted only when Hook is nil or a CacheableHook.
	Cache     *Cache
	CacheSalt string

	// Plan is the pass schedule driving compilation; nil selects the
	// fixed production pipeline (DefaultPlan). Callers must Validate
	// non-default plans before attaching them — Compile trusts the plan.
	Plan *Plan
}

// New returns a Compiler with default options.
func New(log *profile.Recorder, cov *coverage.Tracker, hook Hook) *Compiler {
	return &Compiler{Log: log, Cov: cov, Hook: hook, Opt: DefaultOptions()}
}

// Compile implements vm.Compiler.
func (c *Compiler) Compile(fn *bytecode.Function, tier vm.Tier, env *vm.Machine) (vm.CompiledMethod, error) {
	if fn.Source == nil {
		return nil, fmt.Errorf("jit: %s has no source tree (bailout)", fn.Key())
	}
	prog := env.Image().Program
	cl := prog.Class(fn.Class)
	if cl == nil {
		return nil, fmt.Errorf("jit: class %s not in image (bailout)", fn.Class)
	}

	// Cache probe. Hooks that cannot be fingerprinted (test hooks
	// injected via CompileHook) make compile output unpredictable, so
	// their presence bypasses the cache entirely.
	var ch CacheableHook
	useCache := c.Cache != nil
	if c.Hook != nil {
		ch, _ = c.Hook.(CacheableHook)
		if ch == nil {
			useCache = false
		}
	}
	plan := c.Plan
	if plan == nil {
		plan = DefaultPlan()
	}
	var key string
	if useCache {
		hookFP := ""
		if ch != nil {
			hookFP = ch.CacheFingerprint()
		}
		// The plan fingerprint isolates plans from each other: without
		// it, plan A's compiled method would replay under plan B
		// (pinned by TestCompileCachePlanIsolation).
		key = fmt.Sprintf("%s\x00%d\x00%d\x00%+v\x00%s\x00%s",
			fn.Key(), tier, env.DeoptCount(fn.Key()), c.Opt, hookFP, plan.Fingerprint())
		if e := c.Cache.get(c.CacheSalt, key); e != nil {
			return c.replay(e, env, ch), nil
		}
	}

	f, err := Lower(cl, fn.Source)
	if err != nil {
		return nil, err
	}
	ctx := &Context{Fn: f, Tier: tier, Log: c.Log, Cov: c.Cov, Env: env, Hook: c.Hook}
	var capture *captureEmitter
	var coverRec []string
	trigBase := 0
	if useCache {
		capture = &captureEmitter{next: c.Log}
		ctx.Log = capture
		ctx.coverRec = &coverRec
		if ch != nil {
			trigBase = len(ch.TriggeredIDs())
		}
	}

	ctx.Emitf(profile.FlagPrintCompilation, "%4d %s  %s::%s (%d nodes)",
		env.DeoptCount(fn.Key()), tier, fn.Class, fn.Name, f.Body.CountNodes())

	passErr := c.runTier(ctx, plan.Tier(tier))
	if passErr != nil {
		// Failed compilations (compiler crashes) are never cached: the
		// hook's crash path re-fires identically on every recompile, so
		// skipping them keeps cache hits exactly equivalent to misses.
		return nil, passErr
	}

	// Final hook checkpoint: aggregate interaction predicates (pairs,
	// depth thresholds) fire here with the whole compilation visible.
	if ctx.Hook != nil {
		if err := ctx.Hook.Observe(ctx, Event{Pass: "finish", Behavior: BehaviorNone,
			Detail: fn.Key(), Prov: ctx.ProvUnion()}); err != nil {
			return nil, err
		}
	}
	if c.OnCompiled != nil {
		c.OnCompiled(ctx)
	}
	ctx.Emitf(profile.FlagPrintAssembly, "  # {method} %s::%s tier=%s compiled", fn.Class, fn.Name, tier)

	// Codegen: the IR is final. Emit it, link it into this machine's
	// image and verify it; code that fails verification is a compiler
	// crash, so a pass or an emitter bug that yields ill-formed code
	// shows in the run's output.
	img := env.Image()
	code := emit(f, img)
	err = img.LinkFunction(code)
	if err == nil {
		err = img.VerifyFunction(code)
	}
	if err != nil {
		return nil, &vm.Crash{BugID: "internal", Component: "JIT codegen", Message: err.Error(), FnKey: fn.Key()}
	}
	if useCache {
		var trig []string
		if ch != nil {
			ids := ch.TriggeredIDs()
			trig = append([]string(nil), ids[trigBase:]...)
		}
		// The entry outlives this execution, so it must not pin the
		// optimized IR or the execution's machine (heap, compiled code),
		// log, coverage or hook; replay binds the channels afresh for
		// each observer.
		kept := *ctx
		kept.Fn, kept.Env, kept.Log, kept.Cov, kept.Hook, kept.coverRec = nil, nil, nil, nil, nil, nil
		c.Cache.put(c.CacheSalt, key, &cacheEntry{code: code, lines: capture.lines, cover: coverRec, trig: trig, ctx: &kept})
	}
	return c.compiled(code, env), nil
}

// replay re-applies a cached compilation's side effects — profile lines
// (re-gated by the current recorder), coverage regions, bug-trigger
// state transitions, and the OnCompiled observation — and wraps the
// shared emitted code, linked into this machine's image, in a fresh
// Compiled carrying this execution's runtime state (trap counters,
// env). Neither the passes nor codegen run again.
func (c *Compiler) replay(e *cacheEntry, env *vm.Machine, ch CacheableHook) vm.CompiledMethod {
	for _, l := range e.lines {
		c.Log.AppendLine(l.flag, l.behaviors, l.text)
	}
	for _, name := range e.cover {
		c.Cov.Hit(name)
	}
	if ch != nil && len(e.trig) > 0 {
		ch.ReplayTriggered(e.trig)
	}
	if c.OnCompiled != nil {
		ctx := *e.ctx
		ctx.Env, ctx.Log, ctx.Cov, ctx.Hook = env, c.Log, c.Cov, c.Hook
		c.OnCompiled(&ctx)
	}
	return c.compiled(relink(e.code, env.Image()), env)
}

// relink returns code with its callees in img. Cached code was linked
// into the image of the run that compiled it; every run of the program
// builds an image with the same functions under the same IDs, so the
// copy differs only in Callees.
func relink(code *bytecode.Function, img *bytecode.Image) *bytecode.Function {
	fns := img.Functions()
	if len(code.Callees) == 0 || code.Callees[0] == fns[code.Callees[0].ID] {
		return code
	}
	linked := *code
	linked.Callees = make([]*bytecode.Function, len(code.Callees))
	for i, callee := range code.Callees {
		linked.Callees[i] = fns[callee.ID]
	}
	return &linked
}

// compiled wraps emitted code in a Compiled carrying this execution's
// machine, log and coverage; a cache hit and a miss build it alike.
func (c *Compiler) compiled(code *bytecode.Function, env *vm.Machine) *Compiled {
	return &Compiled{Code: code, Env: env, Log: c.Log, Cov: c.Cov, trapLimit: c.Opt.TrapLimit}
}

// runTier drives one tier's compilation from its plan. The structural
// stages — IR build/parse coverage, the exception-table scan, the loop
// tree, codegen — are not passes and not plannable: they bracket every
// compilation of the tier, exactly as the fixed pipelines bracketed
// them. Only the optimization schedule between them is data.
//
// The default C2 schedule's ordering is deliberate and load-bearing for
// interactions:
//
//	parse -> dereflect -> inline -> EA -> lock elision/nesting ->
//	scalar replacement -> autobox -> GVN+algebra -> loop opts
//	(peel, unswitch, unroll) -> lock coarsening (macro expansion)
//	-> iterative GVN/algebra/RSE/DCE -> traps -> codegen
//
// Unrolling runs before coarsening so that unrolled synchronized bodies
// become adjacent regions coarsening will merge — the JDK-8312744
// interaction chain. Fuzzed plans deliberately break orderings like
// this (while preserving hard preconditions) to reach the
// ordering-sensitive bug class the fixed schedule provably cannot.
func (c *Compiler) runTier(ctx *Context, tp *TierPlan) error {
	if ctx.Tier == vm.TierC1 {
		ctx.Cover("c1.build")
		ctx.Cover("c1.profiling")
		defer func() {
			ctx.Cover("c1.codegen")
			ctx.Cover("c1.runtime_stubs")
		}()
		hasExc := false
		ctx.Fn.Body.Walk(func(n *Node) bool {
			if n.Kind == NTry || n.Kind == NThrow {
				hasExc = true
			}
			return true
		})
		if hasExc {
			ctx.Cover("c1.exceptions")
		}
	} else {
		ctx.Cover("c2.parse")
		ctx.Cover("c2.idealize")
		defer func() {
			ctx.Cover("c2.codegen")
			ctx.Cover("c2.regalloc")
			ctx.Cover("c2.macro.expand")
		}()
		coverLoopTree(ctx)
	}

	for _, name := range tp.Front {
		if err := passTable[name].run(c, ctx); err != nil {
			return err
		}
	}
	// The loop iterates to a fixpoint (bounded), like HotSpot's
	// iterative GVN / repeated loop-opts rounds: each round's
	// transformations expose the next round's opportunities — an
	// unswitched twin unrolls, the unrolled synchronized copies coarsen,
	// the coarsened region exposes nested locks, DCE cleans up, and the
	// simplified tree may unroll further. Deeply nested and adjacent
	// structures (the fixed-mutation-point signature) feed this cascade;
	// scattered independent insertions exhaust it in one round.
	for round := 0; round < tp.Rounds; round++ {
		before := len(ctx.Events)
		for _, name := range tp.Loop {
			if err := passTable[name].run(c, ctx); err != nil {
				return err
			}
		}
		if len(ctx.Events) == before {
			break
		}
	}
	for _, name := range tp.Tail {
		if err := passTable[name].run(c, ctx); err != nil {
			return err
		}
	}
	return nil
}
