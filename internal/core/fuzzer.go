package core

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"

	"repro/internal/buginject"
	"repro/internal/coverage"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/jvm"
	"repro/internal/lang"
	"repro/internal/profile"
)

// Config tunes a Fuzzer. The defaults mirror the paper's §4.1 settings.
type Config struct {
	MaxIterations int  // mutations per seed (paper: 50)
	Guided        bool // profile-data-based mutator weighting (§3.4)
	FixedMP       bool // iterate on one mutation point (false = MopFuzzer_r)
	Target        jvm.Spec
	DiffSpecs     []jvm.Spec // differential-testing targets for the final mutant
	Flags         profile.FlagSet
	MaxSteps      int64
	// MaxHeapUnits caps per-execution heap allocation (0 = VM default,
	// negative = uncapped); exhausting it marks the mutant a dead end.
	MaxHeapUnits int64
	Seed         int64
	// CompileHook, when non-nil, observes every JIT compilation event
	// on the fuzzing target (test seam for fault injection).
	CompileHook jit.Hook
	// Coverage, when non-nil, accumulates VM line coverage across every
	// execution (the Figure 2 instrumentation).
	Coverage *coverage.Tracker
	// DisableBugs runs against bug-free VMs — used when measuring Δ
	// distributions so crashes don't truncate runs.
	DisableBugs bool
	// MaxStmts rejects mutants larger than this many statements
	// (default 600): iterated region copying would otherwise grow
	// programs geometrically.
	MaxStmts int
	// ExtendedMutators adds the alternative evoking-mutator
	// implementations (the paper's future-work extension).
	ExtendedMutators bool
	// StructuredOBV profiles via the counter fast path instead of
	// regex-scanning log text (see jvm.Options.StructuredOBV); it is on
	// in DefaultConfig. Guidance depends only on OBV values, which the
	// equivalence tests pin to the regex oracle, so results are
	// unchanged; false keeps the regex path as the tests' reference.
	StructuredOBV bool
	// CompileCache, when non-nil, reuses JIT compilations across the
	// legs of the final mutant's spec and plan differentials; single
	// runs of fresh mutants have nothing to hit and skip it. A cache hit
	// is byte-equivalent to recompiling.
	CompileCache *jit.Cache
	// Executor selects the execution backend. Nil runs in-process
	// (byte-identical to calling jvm.Run, the deterministic default); the
	// pool executor isolates every target execution in a child process
	// whose death is classified by the harness instead of killing the
	// fuzzer.
	Executor exec.Executor
	// PlanFuzz turns the compilation plan into a fuzz dimension (ROADMAP
	// item 3). The zero value (and jit.PlanDefault) keeps every execution
	// on the fixed pipeline — byte-identical to the pre-plan fuzzer.
	// PlanMinimal/PlanFull draw a deterministic per-seed set of fuzzed
	// plans, rotate them across iterations so the OBV weight update
	// operates over (program, plan) pairs, and run a plan-vs-plan
	// differential on the final mutant — the ordering-sensitivity oracle.
	PlanFuzz jit.PlanMode
}

// DefaultConfig returns the paper's configuration against the given
// target.
func DefaultConfig(target jvm.Spec) Config {
	return Config{
		MaxIterations: 50,
		Guided:        true,
		FixedMP:       true,
		Target:        target,
		DiffSpecs:     jvm.AllSpecs(),
		Flags:         profile.DefaultFlags(),
		MaxSteps:      3_000_000,
		StructuredOBV: true,
	}
}

// IterationRecord captures one fuzzing iteration for analysis
// (Figure 1's curve is plotted from these).
type IterationRecord struct {
	Iter          int
	Mutator       string
	Delta         float64 // Δ(parent, child), Formula 2
	DeltaSeed     float64 // Δ(seed, child) — Figure 1's y-axis
	OBV           profile.OBV
	Weight        float64 // mutator's weight after the update
	CrashBugID    string  // non-empty when this mutant crashed the JVM
	Skipped       bool    // mutation produced an invalid program
	HeapExhausted bool    // mutant blew the heap-allocation budget (dead end)
}

// BugFinding is one detected bug occurrence.
type BugFinding struct {
	Bug       *buginject.Bug
	Oracle    string // "crash", "differential", or "plan-differential"
	Iteration int    // mutation count when detected
	Mutators  []string
	// Divergence records the first diverging target pair for
	// differential findings (nil for crash findings) — the divergence
	// site triage signatures key unattributed miscompiles on.
	Divergence *jvm.Divergence
	// PlanID is the compilation plan the finding surfaced under —
	// "default" or a plan ShortID. Empty when plan fuzzing is off, so
	// off-mode findings keep the pre-plan shape.
	PlanID string
}

// FuzzResult is the outcome of fuzzing one seed.
type FuzzResult struct {
	SeedName   string
	Final      *lang.Program // the final mutant c*
	Records    []IterationRecord
	SeedOBV    profile.OBV
	FinalOBV   profile.OBV
	FinalDelta float64 // Δ(seed OBV, final OBV)
	Findings   []BugFinding
	MutatorSeq []string // mutators applied, in order
	Executions int      // target executions consumed (the time proxy)
	MPID       int
	// Weights is the final mutator-weight table, snapshotted so campaign
	// checkpoints can persist per-seed guidance state.
	Weights map[string]float64
	// HeapExhaustions counts executions that blew the heap budget;
	// FirstHeapExhausting keeps the first triggering program so the
	// harness can quarantine it as a crash-oracle artifact.
	FirstHeapExhausting *lang.Program
	HeapExhaustions     int
	// PlanIDs names the plan set this seed fuzzed over ("default" plus
	// the fuzzed plan ShortIDs), in rotation order. Nil when plan
	// fuzzing is off.
	PlanIDs []string
}

// Fuzzer runs the paper's Algorithm 1.
type Fuzzer struct {
	Cfg      Config
	Mutators []Mutator
	rng      *rand.Rand
	weights  map[string]float64
	// compileOnly is the -XX:CompileCommand=compileonly target: the
	// method holding the seed's mutation point (§4.1). It is fixed per
	// seed, so the MopFuzzer_r variant's scattered mutations mostly land
	// in code the JIT never compiles — the paper's explanation for that
	// variant's collapse.
	compileOnly string
	// plans is the per-seed plan set: index 0 is always nil (the fixed
	// default pipeline); fuzz modes append deterministic fuzzed plans.
	// Iterations rotate through it.
	plans []*jit.Plan
}

// fuzzedPlansPerSeed is how many fuzzed plans join the default plan in a
// seed's rotation (and in the final plan differential).
const fuzzedPlansPerSeed = 3

// planSeedSalt decorrelates the plan-generation stream from the mutation
// stream: both derive from Cfg.Seed, but plan generation must not
// perturb f.rng (off-mode mutation sequences stay byte-identical).
const planSeedSalt = 0x706c616e

// planFuzzOn reports whether this fuzzer explores fuzzed plans.
func (f *Fuzzer) planFuzzOn() bool {
	return f.Cfg.PlanFuzz != "" && f.Cfg.PlanFuzz != jit.PlanDefault
}

// planAt returns the compilation plan for iteration i: nil (the default
// pipeline) when plan fuzzing is off, otherwise the rotation's i-th
// entry. The baseline (i=0) always profiles under the default plan so
// guidance starts from the production reference.
func (f *Fuzzer) planAt(i int) *jit.Plan {
	if len(f.plans) == 0 {
		return nil
	}
	return f.plans[i%len(f.plans)]
}

// planIDFor labels finding provenance: empty when plan fuzzing is off
// (the pre-plan finding shape), the canonical plan ID otherwise.
func (f *Fuzzer) planIDFor(p *jit.Plan) string {
	if !f.planFuzzOn() {
		return ""
	}
	return jit.PlanID(p)
}

// NewFuzzer builds a fuzzer with the 13 mutators.
func NewFuzzer(cfg Config) *Fuzzer {
	if cfg.MaxIterations == 0 {
		cfg.MaxIterations = 50
	}
	if cfg.MaxStmts == 0 {
		cfg.MaxStmts = 600
	}
	muts := AllMutators()
	if cfg.ExtendedMutators {
		muts = ExtendedMutators()
	}
	return &Fuzzer{
		Cfg:      cfg,
		Mutators: muts,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
}

// selectMP picks the mutation point: a random non-block statement in hot
// code — a method reachable from main (mutations in dead methods never
// execute, so they cannot evoke anything), preferring statements inside
// the workload rather than the entry point's driver bookkeeping. This is
// the paper's setting: its -XX:CompileCommand=compileonly targets the
// seed's workload method, and its example MP is the hot call site.
func (f *Fuzzer) selectMP(p *lang.Program) *lang.Location {
	reach := reachableMethods(p)
	var hot, all []*lang.Location
	for _, loc := range lang.Statements(p) {
		if _, isBlock := loc.Stmt.(*lang.Block); isBlock {
			continue
		}
		if !reach[loc.Class.Name+"."+loc.Method.Name] {
			continue
		}
		all = append(all, loc)
		if loc.Method.Name != "main" || loc.LoopDepth() > 0 {
			hot = append(hot, loc)
		}
	}
	if len(hot) > 0 {
		return hot[f.rng.Intn(len(hot))]
	}
	if len(all) == 0 {
		return nil
	}
	return all[f.rng.Intn(len(all))]
}

// reachableMethods computes the call-graph closure from main.
func reachableMethods(p *lang.Program) map[string]bool {
	reach := map[string]bool{}
	var visit func(class, method string)
	visit = func(class, method string) {
		key := class + "." + method
		if reach[key] {
			return
		}
		cl := p.Class(class)
		if cl == nil {
			return
		}
		m := cl.Method(method)
		if m == nil {
			return
		}
		reach[key] = true
		lang.WalkStmts(m.Body, func(s lang.Stmt) bool {
			lang.WalkExprsIn(s, func(e lang.Expr) {
				switch n := e.(type) {
				case *lang.Call:
					visit(n.Class, n.Method)
				case *lang.ReflectCall:
					visit(n.Class, n.Method)
				}
			})
			return true
		})
	}
	visit(p.EntryClass, "main")
	return reach
}

// applicable returns the applicable mutators and their weights at loc.
func (f *Fuzzer) applicable(loc *lang.Location) ([]Mutator, []float64) {
	var ms []Mutator
	var ws []float64
	for _, m := range f.Mutators {
		if m.Applicable(loc) {
			ms = append(ms, m)
			ws = append(ws, f.weights[m.Name()])
		}
	}
	return ms, ws
}

// selectByWeight implements Formula 1: potential(m_i) = w_i / Σ w_j.
func (f *Fuzzer) selectByWeight(ms []Mutator, ws []float64) Mutator {
	total := 0.0
	for _, w := range ws {
		total += w
	}
	if total <= 0 {
		return ms[f.rng.Intn(len(ms))]
	}
	x := f.rng.Float64() * total
	for i, w := range ws {
		x -= w
		if x <= 0 {
			return ms[i]
		}
	}
	return ms[len(ms)-1]
}

// baseOptions are the execution options every run of this fuzzer
// shares: the target execution and both differentials. Building all
// three from one base keeps limits, the compile-only target, the
// compile cache (execute drops it) and DisableBugs from drifting apart.
func (f *Fuzzer) baseOptions() jvm.Options {
	opt := jvm.Options{
		ForceCompile: true,
		MaxSteps:     f.Cfg.MaxSteps,
		MaxHeapUnits: f.Cfg.MaxHeapUnits,
		CompileOnly:  f.compileOnly,
		CompileCache: f.Cfg.CompileCache,
	}
	if f.Cfg.DisableBugs {
		opt.Bugs = []*buginject.Bug{}
	}
	return opt
}

// execute runs the program on the fuzzing target with flags enabled,
// through the configured execution backend, under the given compilation
// plan (nil = the fixed default pipeline).
func (f *Fuzzer) execute(ctx context.Context, p *lang.Program, plan *jit.Plan) (*jvm.ExecResult, error) {
	opt := f.baseOptions()
	opt.CompileCache = nil // one run of a fresh mutant: nothing to hit
	opt.Flags = f.Cfg.Flags
	opt.Coverage = f.Cfg.Coverage
	opt.CompileHook = f.Cfg.CompileHook
	opt.StructuredOBV = f.Cfg.StructuredOBV
	opt.Plan = plan
	return exec.Or(f.Cfg.Executor).Execute(ctx, p, f.Cfg.Target, opt)
}

// FuzzSeed runs Algorithm 1 on one seed program and returns the result.
// The seed is not modified.
func (f *Fuzzer) FuzzSeed(name string, seed *lang.Program) (*FuzzResult, error) {
	return f.FuzzSeedContext(context.Background(), name, seed)
}

// FuzzSeedContext is FuzzSeed with a context threaded to the execution
// backend: an out-of-process backend uses it to bound and kill child
// processes (the in-process backend ignores it, keeping the default
// path byte-identical).
func (f *Fuzzer) FuzzSeedContext(ctx context.Context, name string, seed *lang.Program) (*FuzzResult, error) {
	res := &FuzzResult{SeedName: name}
	// Snapshot the final weight table on every exit path (checkpoints
	// persist it as the per-seed guidance state).
	defer func() { res.Weights = f.Weights() }()

	// Initialize mutator weights to 1 (Algorithm 1, line 4).
	f.weights = map[string]float64{}
	for _, m := range f.Mutators {
		f.weights[m.Name()] = 1
	}

	// Plan set for this seed: index 0 is the fixed default pipeline;
	// fuzz modes add deterministic fuzzed plans drawn from a dedicated
	// stream (f.rng is untouched, so off-mode mutation sequences stay
	// byte-identical whether or not this build knows about plans).
	f.plans = []*jit.Plan{nil}
	if f.planFuzzOn() {
		prng := rand.New(rand.NewSource(f.Cfg.Seed ^ planSeedSalt))
		for len(f.plans) < 1+fuzzedPlansPerSeed {
			plan := jit.GeneratePlan(prng.Int63(), f.Cfg.PlanFuzz)
			if err := plan.Validate(); err != nil {
				// Unreachable by construction; a registry bug must surface
				// here, not as a misattributed execution failure.
				return nil, fmt.Errorf("core: generated plan rejected: %w", err)
			}
			f.plans = append(f.plans, plan)
		}
		for _, plan := range f.plans {
			res.PlanIDs = append(res.PlanIDs, jit.PlanID(plan))
		}
	}

	parent := lang.CloneProgram(seed)
	if err := lang.Check(parent); err != nil {
		return nil, fmt.Errorf("core: seed rejected: %w", err)
	}

	// Select the mutation point (line 2).
	mpLoc := f.selectMP(parent)
	if mpLoc == nil {
		return nil, fmt.Errorf("core: seed has no statements")
	}
	mp := MP{ID: mpLoc.Stmt.ID()}
	res.MPID = mp.ID
	f.compileOnly = mpLoc.Class.Name + "." + mpLoc.Method.Name

	// Execute the seed for its baseline profile data (line 3), always
	// under the default plan (planAt(0)): guidance starts from the
	// production reference schedule.
	parentExec, err := f.execute(ctx, lang.CloneProgram(parent), f.planAt(0))
	if err != nil {
		return nil, err
	}
	res.Executions++
	res.SeedOBV = parentExec.OBV
	parentOBV := parentExec.OBV
	if parentExec.Result.HeapExhausted {
		// The unmutated seed already exhausts the heap: record it so the
		// campaign harness can quarantine the seed, and stop — mutation
		// guidance is meaningless against a truncated baseline profile.
		res.HeapExhaustions++
		res.FirstHeapExhausting = parent
		res.Final = parent
		res.FinalOBV = parentOBV
		return res, nil
	}
	if parentExec.Crashed() {
		// The unmutated seed already crashes (possible on heavily bugged
		// versions): report and stop.
		res.RecordCrash(parentExec, 0, f.planIDFor(f.planAt(0)))
		res.Final = parent
		res.FinalOBV = parentOBV
		return res, nil
	}

	for iter := 1; iter <= f.Cfg.MaxIterations; iter++ {
		// Variant MopFuzzer_r re-picks a random statement each round.
		loc := mp.Locate(parent)
		if !f.Cfg.FixedMP || loc == nil {
			loc = f.selectMP(parent)
			if loc == nil {
				break
			}
			mp = MP{ID: loc.Stmt.ID()}
		}

		ms, ws := f.applicable(loc)
		if len(ms) == 0 {
			break
		}
		m := f.selectByWeight(ms, ws)

		child := lang.CloneProgram(parent)
		childLoc := mp.Locate(child)
		if childLoc == nil {
			break
		}
		newMP, err := m.Apply(child, childLoc, f.rng)
		if err == nil {
			err = lang.Check(child)
		}
		if err != nil || lang.CountStmts(child) > f.Cfg.MaxStmts {
			res.Records = append(res.Records, IterationRecord{Iter: iter, Mutator: m.Name(), Skipped: true})
			continue
		}

		// Rotate the plan set: with plan fuzzing on, iteration i runs
		// under plans[i mod |plans|], so guidance explores (program,
		// plan) pairs — a mutant's Δ can come from the mutation, the
		// schedule, or their interaction, and all three feed the weight
		// update. Off mode always gets nil (the default pipeline).
		plan := f.planAt(iter)
		childExec, err := f.execute(ctx, lang.CloneProgram(child), plan)
		if err != nil {
			// A backend fault (the child process died under this mutant)
			// is a first-class crash-oracle artifact, not a skipped
			// iteration: propagate it so the harness classifies the death
			// and quarantines the trigger.
			if harness.AsFault(err) != nil {
				return nil, err
			}
			res.Records = append(res.Records, IterationRecord{Iter: iter, Mutator: m.Name(), Skipped: true})
			continue
		}
		res.Executions++
		res.MutatorSeq = append(res.MutatorSeq, m.Name())

		rec := IterationRecord{
			Iter:      iter,
			Mutator:   m.Name(),
			OBV:       childExec.OBV,
			Delta:     profile.Delta(parentOBV, childExec.OBV),
			DeltaSeed: profile.Delta(res.SeedOBV, childExec.OBV),
		}

		// Weight update (Formula 3) under guidance.
		if f.Cfg.Guided {
			f.weights[m.Name()] = profile.UpdateWeight(f.weights[m.Name()], parentOBV, childExec.OBV)
		}
		rec.Weight = f.weights[m.Name()]

		if childExec.Crashed() {
			rec.CrashBugID = childExec.Result.Crash.BugID
			res.Records = append(res.Records, rec)
			res.RecordCrash(childExec, iter, f.planIDFor(plan))
			res.Final = child
			res.FinalOBV = childExec.OBV
			res.FinalDelta = rec.DeltaSeed
			return res, nil
		}
		rec.HeapExhausted = childExec.Result.HeapExhausted
		res.Records = append(res.Records, rec)

		// Timed-out and heap-exhausted mutants are dead ends: do not
		// adopt them. Heap exhaustion additionally marks the mutant as a
		// quarantinable artifact for the harness.
		if childExec.Result.HeapExhausted {
			res.HeapExhaustions++
			if res.FirstHeapExhausting == nil {
				res.FirstHeapExhausting = child
			}
			continue
		}
		if childExec.Result.TimedOut {
			continue
		}

		parent = child
		parentOBV = childExec.OBV
		mp = newMP
	}

	res.Final = parent
	res.FinalOBV = parentOBV
	res.FinalDelta = profile.Delta(res.SeedOBV, parentOBV)

	// Differential testing of the final mutant c* (Algorithm 1 line 20).
	if len(f.Cfg.DiffSpecs) > 0 {
		diff, err := exec.Or(f.Cfg.Executor).ExecuteDifferential(ctx, parent, f.Cfg.DiffSpecs, f.baseOptions())
		if err != nil {
			return nil, err
		}
		res.Judge(diff, "differential", f.Cfg.MaxIterations, f.planIDFor(nil))
	}

	// Plan-vs-plan differential (the ordering-sensitivity oracle): the
	// final mutant runs on ONE spec — the fuzzing target — under every
	// plan in the seed's set. Program and spec are held fixed, so any
	// divergence is phase-ordering sensitivity: the bug class the fixed
	// schedule provably cannot reach (see runTier's ordering comment).
	if f.planFuzzOn() {
		pdiff, err := exec.Or(f.Cfg.Executor).ExecutePlanDifferential(ctx, parent, f.Cfg.Target, f.plans, f.baseOptions())
		if err != nil {
			return nil, err
		}
		res.Judge(pdiff, "plan-differential", f.Cfg.MaxIterations, f.planIDFor(nil))
	}
	return res, nil
}

// Judge folds a differential of the final mutant into res: a crash is
// a crash finding, and a divergence is one finding under oracle per bug
// that caused it. A plan differential's legs name their plans; a spec
// differential's legs ran the default pipeline, whose ID is planID.
// Every tool is judged by this oracle, so tools compared on one budget
// count the same findings.
func (res *FuzzResult) Judge(d *jvm.Differential, oracle string, iter int, planID string) {
	res.Executions += len(d.Results)
	if crash := d.AnyCrash(); crash != nil {
		res.RecordCrash(crash, iter, cmp.Or(crash.PlanID, planID))
	} else if div := d.FirstDivergence(); div != nil {
		for _, b := range d.DivergentBugs() {
			res.Findings = append(res.Findings, BugFinding{
				Bug: b, Oracle: oracle, Iteration: iter,
				Mutators:   append([]string(nil), res.MutatorSeq...),
				Divergence: div,
				PlanID:     cmp.Or(div.DivergentPlan, planID),
			})
		}
	}
}

// RecordCrash appends the crash finding for a crashed execution at
// iteration iter under plan planID, blaming the catalog bug the crash
// names. A crash without a catalog entry (e.g. an illegal-monitor state
// produced by a miscompile defect) is blamed on the first bug the run
// triggered; with none, nothing is recorded.
func (res *FuzzResult) RecordCrash(ex *jvm.ExecResult, iter int, planID string) {
	finding := BugFinding{
		Oracle:    "crash",
		Iteration: iter,
		Mutators:  append([]string(nil), res.MutatorSeq...),
		PlanID:    planID,
	}
	if b := buginject.ByID(ex.Result.Crash.BugID); b != nil {
		finding.Bug = b
	} else if len(ex.Triggered) > 0 {
		finding.Bug = ex.Triggered[0]
	}
	if finding.Bug != nil {
		res.Findings = append(res.Findings, finding)
	}
}

// Weights exposes the current weight table (for the guidance example and
// tests).
func (f *Fuzzer) Weights() map[string]float64 {
	out := map[string]float64{}
	for k, v := range f.weights {
		out[k] = v
	}
	return out
}
