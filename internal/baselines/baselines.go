// Package baselines reimplements the comparison tools' strategies over
// the same substrate: JITFuzz (coverage-guided, random mutation points,
// non-nested insertions, 1000 iterations per seed) and Artemis
// (compilation-space exploration with three non-iterative templates),
// plus the paper's ablation variants MopFuzzer_g (no profile guidance)
// and MopFuzzer_r (random statement each iteration).
package baselines

import (
	"context"
	"math/rand"

	"repro/internal/buginject"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/exec"
	"repro/internal/jvm"
	"repro/internal/lang"
	"repro/internal/profile"
)

// Tool is a fuzzing strategy the experiment harness can drive
// seed-by-seed. seedIdx perturbs the tool's RNG per seed. SetExecutor
// routes all of the tool's target executions through a backend
// (in-process when nil, minijvm children under -backend pool).
type Tool interface {
	Name() string
	SetExecutor(ex exec.Executor)
	FuzzSeed(name string, seed *lang.Program, seedIdx int64) (*core.FuzzResult, error)
}

// --- MopFuzzer and its variants ---

// MopFuzzerTool wraps the core fuzzer as a Tool.
type MopFuzzerTool struct {
	Label string
	Cfg   core.Config
}

// NewMopFuzzer returns the full system (guided, fixed MP).
func NewMopFuzzer(target jvm.Spec, cov *coverage.Tracker) *MopFuzzerTool {
	cfg := core.DefaultConfig(target)
	cfg.Coverage = cov
	return &MopFuzzerTool{Label: "MopFuzzer", Cfg: cfg}
}

// NewMopFuzzerG returns MopFuzzer_g: no profile-data guidance (random
// mutator each iteration, weights frozen).
func NewMopFuzzerG(target jvm.Spec, cov *coverage.Tracker) *MopFuzzerTool {
	cfg := core.DefaultConfig(target)
	cfg.Guided = false
	cfg.Coverage = cov
	return &MopFuzzerTool{Label: "MopFuzzer_g", Cfg: cfg}
}

// NewMopFuzzerR returns MopFuzzer_r: a random statement is selected at
// every iteration instead of a fixed mutation point.
func NewMopFuzzerR(target jvm.Spec, cov *coverage.Tracker) *MopFuzzerTool {
	cfg := core.DefaultConfig(target)
	cfg.FixedMP = false
	cfg.Coverage = cov
	return &MopFuzzerTool{Label: "MopFuzzer_r", Cfg: cfg}
}

func (t *MopFuzzerTool) Name() string { return t.Label }

func (t *MopFuzzerTool) SetExecutor(ex exec.Executor) { t.Cfg.Executor = ex }

func (t *MopFuzzerTool) FuzzSeed(name string, seed *lang.Program, seedIdx int64) (*core.FuzzResult, error) {
	cfg := t.Cfg
	cfg.Seed = seedIdx
	return core.NewFuzzer(cfg).FuzzSeed(name, seed)
}

// --- JITFuzz ---

// JITFuzzTool models JITFuzz's strategy (§2.5): six mutators (four
// optimization-triggering — inlining, simplification, scalar
// replacement, escape analysis — and two control-flow reshapers),
// applied at a fresh random mutation point every iteration, keeping a
// mutant only when it increases coverage. Inserted code is independent:
// never nested around previous insertions.
type JITFuzzTool struct {
	baseline
	Iterations int // paper default: 1000 per seed
}

// NewJITFuzz builds the baseline with the paper's defaults.
func NewJITFuzz(target jvm.Spec, cov *coverage.Tracker) *JITFuzzTool {
	return &JITFuzzTool{baseline: newBaseline(target, cov), Iterations: 1000}
}

func (t *JITFuzzTool) Name() string { return "JITFuzz" }

// jitfuzzMutators are the strategy's six mutators, built from the same
// mutation library so the comparison isolates *strategy*, not mutation
// machinery.
func jitfuzzMutators() []core.Mutator {
	return []core.Mutator{
		&core.InliningEvoke{},                // function inlining
		&core.AlgebraicSimplificationEvoke{}, // simplification
		&core.EscapeAnalysisEvoke{},          // scalar replacement
		&core.EscapeAnalysisEvoke{},          // escape analysis (same family)
		&branchReshaper{},                    // control-flow mutator 1
		&loopReshaper{},                      // control-flow mutator 2
	}
}

func (t *JITFuzzTool) FuzzSeed(name string, seed *lang.Program, seedIdx int64) (*core.FuzzResult, error) {
	rng := rand.New(rand.NewSource(seedIdx))
	res := &core.FuzzResult{SeedName: name}
	muts := jitfuzzMutators()

	parent := lang.CloneProgram(seed)
	if err := lang.Check(parent); err != nil {
		return nil, err
	}
	compileOnly := core.HotMethodKey(parent)
	cov := t.Coverage
	if cov == nil {
		cov = coverage.NewTracker()
	}
	parentExec, err := t.execute(parent, compileOnly, cov)
	if err != nil {
		return nil, err
	}
	res.Executions++
	res.SeedOBV = parentExec.OBV
	parentCov := cov.Hits()

	for iter := 1; iter <= t.Iterations; iter++ {
		locs := statements(parent)
		if len(locs) == 0 {
			break
		}
		loc := locs[rng.Intn(len(locs))]
		m := muts[rng.Intn(len(muts))]
		if !m.Applicable(loc) {
			continue
		}
		child := lang.CloneProgram(parent)
		childLoc := lang.Find(child, loc.Stmt.ID())
		if childLoc == nil {
			continue
		}
		if _, err := m.Apply(child, childLoc, rng); err != nil {
			continue
		}
		if err := lang.Check(child); err != nil {
			continue
		}
		if lang.CountStmts(child) > 400 {
			continue // tighter than the core fuzzer's cap (Config.MaxStmts, 600)
		}
		ex, err := t.execute(child, compileOnly, cov)
		if err != nil {
			continue
		}
		res.Executions++
		res.MutatorSeq = append(res.MutatorSeq, m.Name())
		rec := core.IterationRecord{
			Iter: iter, Mutator: m.Name(), OBV: ex.OBV,
			DeltaSeed: profile.Delta(res.SeedOBV, ex.OBV),
		}
		res.Records = append(res.Records, rec)
		if ex.Crashed() {
			res.RecordCrash(ex, iter, "")
			res.Final = child
			res.FinalOBV = ex.OBV
			res.FinalDelta = rec.DeltaSeed
			return res, nil
		}
		// Coverage-guided acceptance: keep the mutant only when it
		// covered new VM code.
		if ex.Result.TimedOut {
			continue
		}
		if cov.Hits() > parentCov || rng.Intn(16) == 0 {
			parent = child
			parentCov = cov.Hits()
			res.FinalOBV = ex.OBV
		}
	}
	res.Final = parent
	res.FinalDelta = profile.Delta(res.SeedOBV, res.FinalOBV)
	t.judge(res, parent, compileOnly)
	return res, nil
}

// --- Artemis ---

// ArtemisTool models Artemis's compilation-space exploration (§2.5):
// three mutation templates — loop insertion around calls, extra-call
// wrappers, and uncommon-trap guards — applied once (non-iteratively) to
// a seed. Templates do not interact with each other.
type ArtemisTool struct{ baseline }

// NewArtemis builds the baseline.
func NewArtemis(target jvm.Spec, cov *coverage.Tracker) *ArtemisTool {
	return &ArtemisTool{newBaseline(target, cov)}
}

func (t *ArtemisTool) Name() string { return "Artemis" }

func (t *ArtemisTool) FuzzSeed(name string, seed *lang.Program, seedIdx int64) (*core.FuzzResult, error) {
	rng := rand.New(rand.NewSource(seedIdx))
	res := &core.FuzzResult{SeedName: name}
	child := lang.CloneProgram(seed)
	if err := lang.Check(child); err != nil {
		return nil, err
	}
	compileOnly := core.HotMethodKey(child)
	seedExec, err := t.execute(child, compileOnly, t.Coverage)
	if err != nil {
		return nil, err
	}
	res.Executions++
	res.SeedOBV = seedExec.OBV

	// Apply 1–3 templates at random points, each once (non-iterative).
	// Artemis's templates deliberately manipulate the *hot* path (they
	// control which segments the JIT compiles), so sites are drawn from
	// the workload method.
	templates := []core.Mutator{&artemisLoopTemplate{}, &artemisCallTemplate{}, &core.DeoptimizationEvoke{}}
	n := 1 + rng.Intn(3)
	for k := 0; k < n; k++ {
		locs := statements(child)
		var hot []*lang.Location
		for _, l := range locs {
			if l.Class.Name+"."+l.Method.Name == compileOnly {
				hot = append(hot, l)
			}
		}
		if len(hot) > 0 {
			locs = hot
		}
		if len(locs) == 0 {
			break
		}
		loc := locs[rng.Intn(len(locs))]
		m := templates[rng.Intn(len(templates))]
		if !m.Applicable(loc) {
			continue
		}
		cand := lang.CloneProgram(child)
		candLoc := lang.Find(cand, loc.Stmt.ID())
		if candLoc == nil {
			continue
		}
		if _, err := m.Apply(cand, candLoc, rng); err != nil {
			continue
		}
		if err := lang.Check(cand); err != nil {
			continue // template produced an invalid program; skip it
		}
		child = cand
		res.MutatorSeq = append(res.MutatorSeq, m.Name())
	}

	finalExec, err := t.execute(child, compileOnly, t.Coverage)
	if err != nil {
		return nil, err
	}
	res.Executions++
	res.Final = child
	res.FinalOBV = finalExec.OBV
	res.FinalDelta = profile.Delta(res.SeedOBV, finalExec.OBV)
	res.Records = append(res.Records, core.IterationRecord{
		Iter: 1, Mutator: "artemis-template", OBV: finalExec.OBV, DeltaSeed: res.FinalDelta,
	})
	if finalExec.Crashed() {
		res.RecordCrash(finalExec, 1, "")
		return res, nil
	}
	t.judge(res, child, compileOnly)
	return res, nil
}

// artemisLoopTemplate wraps a statement in a fresh (possibly nested)
// counted loop — Artemis's hotness-control template, which builds more
// complex loop structures than MopFuzzer's (§4.3).
type artemisLoopTemplate struct{}

func (artemisLoopTemplate) Name() string   { return "Artemis-LoopTemplate" }
func (artemisLoopTemplate) Evokes() string { return "compilation-space loops" }
func (artemisLoopTemplate) Applicable(loc *lang.Location) bool {
	// Wrapping a declaration would shrink its scope; wrapping a return
	// or throw would break definite completion.
	switch loc.Stmt.(type) {
	case *lang.VarDecl, *lang.Return, *lang.Throw:
		return false
	}
	return true
}

func (artemisLoopTemplate) Apply(p *lang.Program, loc *lang.Location, rng *rand.Rand) (core.MP, error) {
	depth := 1 + rng.Intn(2)
	stmt := loc.Stmt
	inner := stmt
	for d := 0; d < depth; d++ {
		v := lang.FreshVar(loc.Method, "at")
		loop := lang.Register(p, &lang.For{
			Var:  v,
			From: &lang.IntLit{V: 0},
			To:   &lang.IntLit{V: int64(2 + rng.Intn(4))},
			Step: 1,
			Body: lang.Register(p, &lang.Block{Stmts: []lang.Stmt{inner}}),
		})
		inner = loop
	}
	loc.Replace(inner)
	return core.MP{ID: stmt.ID()}, nil
}

// artemisCallTemplate routes an int expression through a fresh wrapper
// method (the extra-call template).
type artemisCallTemplate struct{}

func (artemisCallTemplate) Name() string   { return "Artemis-CallTemplate" }
func (artemisCallTemplate) Evokes() string { return "interpretation/JIT boundary calls" }
func (artemisCallTemplate) Applicable(loc *lang.Location) bool {
	return (&core.InliningEvoke{}).Applicable(loc)
}

func (artemisCallTemplate) Apply(p *lang.Program, loc *lang.Location, rng *rand.Rand) (core.MP, error) {
	return (&core.InliningEvoke{}).Apply(p, loc, rng)
}

// --- JITFuzz control-flow reshapers ---

// branchReshaper wraps a statement in if/else with both arms executing
// the statement (control-flow reshaping without semantic change).
type branchReshaper struct{}

func (branchReshaper) Name() string   { return "JITFuzz-Branch" }
func (branchReshaper) Evokes() string { return "control-flow reshaping" }
func (branchReshaper) Applicable(loc *lang.Location) bool {
	_, isDecl := loc.Stmt.(*lang.VarDecl)
	return !isDecl
}

func (branchReshaper) Apply(p *lang.Program, loc *lang.Location, rng *rand.Rand) (core.MP, error) {
	stmt := loc.Stmt
	cloned := lang.CloneStmt(stmt)
	lang.ReassignIDs(p, cloned)
	iff := lang.Register(p, &lang.If{
		Cond: &lang.Binary{Op: lang.OpGe, L: &lang.IntLit{V: int64(rng.Intn(5))}, R: &lang.IntLit{V: 2}},
		Then: lang.Register(p, &lang.Block{Stmts: []lang.Stmt{stmt}}),
		Else: lang.Register(p, &lang.Block{Stmts: []lang.Stmt{cloned}}),
	})
	loc.Replace(iff)
	return core.MP{ID: stmt.ID()}, nil
}

// loopReshaper inserts an independent busy loop before the statement
// (not wrapping it — JITFuzz insertions are independent of each other).
type loopReshaper struct{}

func (loopReshaper) Name() string                       { return "JITFuzz-Loop" }
func (loopReshaper) Evokes() string                     { return "hotness control" }
func (loopReshaper) Applicable(loc *lang.Location) bool { return true }

func (loopReshaper) Apply(p *lang.Program, loc *lang.Location, rng *rand.Rand) (core.MP, error) {
	v := lang.FreshVar(loc.Method, "jf")
	sink := lang.FreshVar(loc.Method, "jfs")
	decl := lang.Register(p, &lang.VarDecl{Name: sink, Ty: lang.Int, Init: &lang.IntLit{V: 0}})
	body := lang.Register(p, &lang.Block{Stmts: []lang.Stmt{
		lang.Register(p, &lang.Assign{
			Target: &lang.VarRef{Name: sink},
			Value: &lang.Binary{Op: lang.OpAdd,
				L: &lang.VarRef{Name: sink}, R: &lang.VarRef{Name: v}},
		}),
	}})
	loop := lang.Register(p, &lang.For{
		Var: v, From: &lang.IntLit{V: 0},
		To:   &lang.IntLit{V: int64(4 + rng.Intn(12))},
		Step: 1, Body: body,
	})
	loc.InsertBefore(decl)
	loc.InsertBefore(loop)
	return core.MP{ID: loc.Stmt.ID()}, nil
}

// --- shared plumbing ---

// baseline is what JITFuzz and Artemis share: the target, the limits
// every run obeys, the specs the final mutant's differential runs on,
// and the backend.
type baseline struct {
	Target      jvm.Spec
	Coverage    *coverage.Tracker
	MaxSteps    int64
	DiffSpecs   []jvm.Spec
	DisableBugs bool
	Executor    exec.Executor // nil = in-process
}

func newBaseline(target jvm.Spec, cov *coverage.Tracker) baseline {
	return baseline{Target: target, Coverage: cov, MaxSteps: 3_000_000, DiffSpecs: jvm.AllSpecs()}
}

func (b *baseline) SetExecutor(ex exec.Executor) { b.Executor = ex }

// options are what every run of one seed shares, the differential
// included: forced compilation of compileOnly, the step limit and
// DisableBugs.
func (b *baseline) options(compileOnly string) jvm.Options {
	opt := jvm.Options{ForceCompile: true, MaxSteps: b.MaxSteps, CompileOnly: compileOnly}
	if b.DisableBugs {
		opt.Bugs = []*buginject.Bug{}
	}
	return opt
}

// execute runs a copy of p on the target with the profiling flags on,
// adding its coverage to cov (nil = none).
func (b *baseline) execute(p *lang.Program, compileOnly string, cov *coverage.Tracker) (*jvm.ExecResult, error) {
	opt := b.options(compileOnly)
	opt.Flags = profile.DefaultFlags()
	opt.Coverage = cov
	return exec.Or(b.Executor).Execute(context.Background(), lang.CloneProgram(p), b.Target, opt)
}

// judge runs the final mutant p on DiffSpecs and lets core's oracle
// judge the differential. A backend error leaves res as it is.
func (b *baseline) judge(res *core.FuzzResult, p *lang.Program, compileOnly string) {
	if len(b.DiffSpecs) == 0 {
		return
	}
	diff, err := exec.Or(b.Executor).ExecuteDifferential(context.Background(), p, b.DiffSpecs, b.options(compileOnly))
	if err != nil {
		return
	}
	res.Judge(diff, "differential", 0, "")
}

func statements(p *lang.Program) []*lang.Location {
	var out []*lang.Location
	for _, loc := range lang.Statements(p) {
		if _, isBlock := loc.Stmt.(*lang.Block); isBlock {
			continue
		}
		out = append(out, loc)
	}
	return out
}
