// Package jvm composes the substrate into named, versioned JVM
// implementations: each Spec pairs an implementation (HotSpot-sim or
// OpenJ9-sim) and a release train (LTS 8/11/17/21 or mainline 23) with
// that version's seeded bug set and tuning. Running a program on several
// specs and comparing outputs is the paper's differential-testing oracle.
package jvm

import (
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"

	"repro/internal/buginject"
	"repro/internal/bytecode"
	"repro/internal/coverage"
	"repro/internal/jit"
	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/vm"
)

// Spec identifies one simulated JVM build.
type Spec struct {
	Impl    buginject.Impl
	Version int // 8, 11, 17, 21, or 23 (mainline)
}

// Name renders the spec like a JDK build string.
func (s Spec) Name() string {
	v := fmt.Sprintf("%d", s.Version)
	if s.Version == 23 {
		v = "mainline"
	}
	if s.Impl == buginject.OpenJ9 {
		return "openj9-" + v
	}
	return "openjdk-" + v
}

// MarshalText renders the spec by its Name, as the CLIs and the exec
// wire do.
func (s Spec) MarshalText() ([]byte, error) { return []byte(s.Name()), nil }

// UnmarshalText parses a spec Name (see ParseSpec).
func (s *Spec) UnmarshalText(text []byte) (err error) {
	*s, err = ParseSpec(string(text))
	return err
}

// HotSpotLTSAndMainline returns the OpenJDK test targets (§4.1).
func HotSpotLTSAndMainline() []Spec {
	return []Spec{
		{buginject.HotSpot, 8}, {buginject.HotSpot, 11}, {buginject.HotSpot, 17},
		{buginject.HotSpot, 21}, {buginject.HotSpot, 23},
	}
}

// OpenJ9LTSAndMainline returns the OpenJ9 test targets.
func OpenJ9LTSAndMainline() []Spec {
	return []Spec{
		{buginject.OpenJ9, 8}, {buginject.OpenJ9, 11}, {buginject.OpenJ9, 17},
		{buginject.OpenJ9, 21}, {buginject.OpenJ9, 23},
	}
}

// AllSpecs returns every differential-testing target.
func AllSpecs() []Spec {
	return append(HotSpotLTSAndMainline(), OpenJ9LTSAndMainline()...)
}

// Reference is the spec differential runs treat as the primary target
// (latest HotSpot mainline).
func Reference() Spec { return Spec{buginject.HotSpot, 23} }

// ParseSpec parses a JDK build string as rendered by Spec.Name —
// "openjdk-17", "openj9-11", "openjdk-mainline" — the format the CLIs
// and the execution-backend wire protocol use.
func ParseSpec(s string) (Spec, error) {
	impl := buginject.HotSpot
	rest := s
	switch {
	case strings.HasPrefix(s, "openjdk-"):
		rest = strings.TrimPrefix(s, "openjdk-")
	case strings.HasPrefix(s, "openj9-"):
		impl = buginject.OpenJ9
		rest = strings.TrimPrefix(s, "openj9-")
	default:
		return Spec{}, fmt.Errorf("jvm: unknown JVM %q", s)
	}
	switch rest {
	case "8", "11", "17", "21":
		v, _ := strconv.Atoi(rest)
		return Spec{Impl: impl, Version: v}, nil
	case "mainline", "23":
		return Spec{Impl: impl, Version: 23}, nil
	}
	return Spec{}, fmt.Errorf("jvm: unknown version %q", rest)
}

// Options tunes one execution.
type Options struct {
	// Flags selects the diagnostic flags; nil means no profile data.
	Flags profile.FlagSet
	// Coverage, when non-nil, accumulates VM line coverage.
	Coverage *coverage.Tracker
	// ForceCompile mirrors -Xcomp: aggressive tier thresholds so the
	// target methods compile within short fuzzing runs.
	ForceCompile bool
	// CompileOnly mirrors -XX:CompileCommand=compileonly,C::m: when
	// non-empty only this method ("Class.method") is JIT compiled. The
	// paper's OBV-construction setting (§4.1).
	CompileOnly string
	// MaxSteps bounds execution (0 = machine default).
	MaxSteps int64
	// MaxHeapUnits bounds cumulative heap allocation (0 = machine
	// default, negative = uncapped) — the -Xmx analogue of MaxSteps.
	MaxHeapUnits int64
	// PureInterpreter disables the JIT entirely (reference semantics).
	PureInterpreter bool
	// Bugs overrides the spec's armed bug set when non-nil (ablations).
	Bugs []*buginject.Bug
	// CompileHook, when non-nil, observes every compilation event
	// alongside the spec's bug injector (chained after it). The fault-
	// containment tests use it to inject panicking passes; production
	// runs leave it nil.
	CompileHook jit.Hook
	// StructuredOBV selects the fast profile path: passes maintain the
	// behavior counters directly and no log text is ever built, so
	// ExecResult.Log stays empty and ExecResult.OBV comes from the
	// counters. Equivalence with the regex-over-log reference oracle is
	// pinned by TestStructuredOBVMatchesExtract.
	StructuredOBV bool
	// CompileCache, when non-nil, reuses method compilations across the
	// runs of one program, such as a differential's legs: it holds only
	// the program it last ran, keyed by method, tier, pipeline options,
	// armed bug state, plan, and deopt count. Ignored when CompileHook
	// is set (the compiler cannot fingerprint the chained hook).
	CompileCache *jit.Cache
	// Plan, when non-nil, overrides the JIT's pass schedule for every
	// compilation in this execution (nil = the fixed default pipeline).
	// The plan is validated once here, so an ill-formed plan is a
	// program-level rejection, not a compile bailout. Serializable: it
	// crosses the exec wire protocol to pool children.
	Plan *jit.Plan
}

// ExecResult is one program execution on one spec.
type ExecResult struct {
	Spec      Spec
	Result    *vm.Result
	Log       string
	OBV       profile.OBV
	Triggered []*buginject.Bug
	Compiled  int // number of method compilations observed
	// PlanID names the compilation plan this run executed under. Only
	// the plan-differential driver populates it ("default" or a plan
	// ShortID); spec-differential and single runs leave it empty.
	PlanID string
}

// Crashed reports whether the run ended in a JVM crash.
func (r *ExecResult) Crashed() bool { return r.Result.Crashed() }

// HsErr renders the crash report (empty when no crash).
func (r *ExecResult) HsErr() string {
	if r.Result.Crash == nil {
		return ""
	}
	return r.Result.Crash.HsErrReport(r.Spec.Name())
}

// Run type-checks, compiles, verifies, and executes the program on the
// given simulated JVM. Program-level errors (unparseable, ill-typed)
// return an error; JVM-level outcomes (crash, exception, timeout) are in
// the ExecResult.
func Run(p *lang.Program, spec Spec, opt Options) (*ExecResult, error) {
	return run(p, spec, opt, cacheSalt(p, opt))
}

// run is Run under p's compile-cache salt, which a differential
// computes once for all its legs.
func run(p *lang.Program, spec Spec, opt Options, salt string) (*ExecResult, error) {
	if err := lang.Check(p); err != nil {
		return nil, fmt.Errorf("jvm: program rejected: %w", err)
	}
	if opt.Plan != nil {
		if err := opt.Plan.Validate(); err != nil {
			return nil, fmt.Errorf("jvm: plan rejected: %w", err)
		}
	}
	img, err := bytecode.Compile(p)
	if err != nil {
		return nil, fmt.Errorf("jvm: compile: %w", err)
	}
	if err := bytecode.Verify(img); err != nil {
		return nil, fmt.Errorf("jvm: verify: %w", err)
	}

	rec := profile.NewRecorder(opt.Flags)
	if opt.StructuredOBV {
		rec = profile.NewCounterRecorder(opt.Flags)
	}
	// Coverage costs a tracker hit per instrumented event, so only runs
	// that asked for it pay: with no tracker the VM traces nothing and
	// the JIT's marks go to a nil tracker.
	cov := opt.Coverage
	cfg := vm.Config{MaxSteps: opt.MaxSteps, MaxHeapUnits: opt.MaxHeapUnits, CompileOnly: opt.CompileOnly}
	if cov != nil {
		cfg.Trace = cov.Hit
	}
	if opt.ForceCompile {
		cfg.CompileEager = true
	}
	var inj *buginject.Injector
	compiled := 0
	if !opt.PureInterpreter {
		if opt.Bugs != nil {
			inj = buginject.NewInjectorFor(opt.Bugs)
		} else {
			inj = buginject.NewInjector(spec.Impl, spec.Version)
		}
		var hook jit.Hook = inj
		if opt.CompileHook != nil {
			hook = jit.ChainHooks(inj, opt.CompileHook)
		}
		comp := jit.New(rec, cov, hook)
		if spec.Impl == buginject.OpenJ9 {
			// The J9-sim compiler tunes differently: a larger inline
			// budget and slightly later speculation.
			comp.Opt.InlineBudgetC2 = 96
			comp.Opt.TrapLimit = 3
		}
		comp.Plan = opt.Plan
		comp.OnCompiled = func(*jit.Context) { compiled++ }
		comp.Cache, comp.CacheSalt = opt.CompileCache, salt
		cfg.JIT = comp
	}

	res := vm.NewMachine(img, cfg).Run()
	out := &ExecResult{
		Spec:     spec,
		Result:   res,
		Compiled: compiled,
	}
	if opt.StructuredOBV {
		out.OBV = rec.OBV()
	} else if rec.Len() > 0 {
		// Executions with no flags enabled (differential re-runs) emit no
		// lines; skip both the log join and the 19-rule regex scan.
		out.Log = rec.Text()
		out.OBV = profile.ExtractOBV(out.Log)
	}
	if inj != nil {
		out.Triggered = inj.Triggered
	}
	return out, nil
}

// cacheSalt hashes the program's canonical source rendering — the
// compile cache's identity for "same program" — or returns "" when no
// cache is attached. Computed once per execution or differential.
func cacheSalt(p *lang.Program, opt Options) string {
	if opt.CompileCache == nil {
		return ""
	}
	h := fnv.New64a()
	io.WriteString(h, lang.Format(p))
	return strconv.FormatUint(h.Sum64(), 16)
}

// Differential runs the program on every spec and reports the distinct
// output groups. A single group means all implementations agree.
type Differential struct {
	Results []*ExecResult
	Groups  map[string][]Spec // output string -> specs producing it
}

// Add records one run of the differential: its result, and spec under
// the group of runs that printed the same output. Every backend builds
// its differentials through Add, so grouping is one rule everywhere.
func (d *Differential) Add(spec Spec, r *ExecResult) {
	if d.Groups == nil {
		d.Groups = map[string][]Spec{}
	}
	d.Results = append(d.Results, r)
	key := r.Result.OutputString()
	d.Groups[key] = append(d.Groups[key], spec)
}

// RunDifferential executes p on all the given specs.
func RunDifferential(p *lang.Program, specs []Spec, opt Options) (*Differential, error) {
	d := &Differential{}
	salt := cacheSalt(p, opt)
	for _, spec := range specs {
		// Each run needs a fresh program instance: Check mutates the AST
		// (type annotations) but execution does not; cloning keeps runs
		// hermetic anyway.
		r, err := run(lang.CloneProgram(p), spec, opt, salt)
		if err != nil {
			return nil, err
		}
		d.Add(spec, r)
	}
	return d, nil
}

// RunPlanDifferential is the plan-vs-plan oracle: it executes p on ONE
// spec under every given compilation plan (a nil entry is the fixed
// default pipeline) and groups the outputs. Where the spec differential
// varies the implementation and holds the pipeline constant, this holds
// the implementation constant and varies the pass schedule — any
// disagreement is an ordering- or phase-sensitivity miscompilation on
// that single build, a bug class the fixed schedule cannot exhibit.
func RunPlanDifferential(p *lang.Program, spec Spec, plans []*jit.Plan, opt Options) (*Differential, error) {
	d := &Differential{}
	salt := cacheSalt(p, opt)
	for _, plan := range plans {
		o := opt
		o.Plan = plan
		r, err := run(lang.CloneProgram(p), spec, o, salt)
		if err != nil {
			return nil, err
		}
		r.PlanID = jit.PlanID(plan)
		d.Add(spec, r)
	}
	return d, nil
}

// Inconsistent reports whether the specs disagree on the output.
func (d *Differential) Inconsistent() bool { return len(d.Groups) > 1 }

// Divergence pinpoints a differential inconsistency: the spec carrying
// the modal (majority) output, the first spec in run order whose output
// differs from it, and that spec's index in Results. Triage signatures
// use the pair and index as the divergence site of a miscompilation.
// For plan differentials (one spec, many plans) the spec pair is
// degenerate and ModalPlan/DivergentPlan carry the plan identities
// instead; spec differentials leave them empty, so existing
// serializations are byte-identical.
type Divergence struct {
	Modal         Spec   `json:"modal"`
	Divergent     Spec   `json:"divergent"`
	Index         int    `json:"index"`
	ModalPlan     string `json:"modal_plan,omitempty"`
	DivergentPlan string `json:"divergent_plan,omitempty"`
}

// FirstDivergence locates the first diverging result, or nil when all
// specs agree. Unlike iterating Groups (a map), it scans Results in run
// order, so the answer is deterministic: the modal output is the most
// common one with ties broken by first appearance, and the divergent
// spec is the earliest result whose output differs from it.
func (d *Differential) FirstDivergence() *Divergence {
	if !d.Inconsistent() {
		return nil
	}
	modal := d.modal()
	div := &Divergence{Index: -1}
	for i, r := range d.Results {
		if r.Result.OutputString() == modal {
			if div.Modal == (Spec{}) {
				div.Modal = r.Spec
				div.ModalPlan = r.PlanID
			}
		} else if div.Index < 0 {
			div.Divergent, div.Index = r.Spec, i
			div.DivergentPlan = r.PlanID
		}
	}
	return div
}

// modal returns the most common output, ties broken by first
// appearance in Results.
func (d *Differential) modal() string {
	counts := map[string]int{}
	for _, r := range d.Results {
		counts[r.Result.OutputString()]++
	}
	modal, best := "", -1
	for _, r := range d.Results {
		if out := r.Result.OutputString(); counts[out] > best {
			best, modal = counts[out], out
		}
	}
	return modal
}

// AnyCrash returns the first crashing result, or nil.
func (d *Differential) AnyCrash() *ExecResult {
	for _, r := range d.Results {
		if r.Crashed() {
			return r
		}
	}
	return nil
}

// TriggeredBugs returns the union of bugs triggered across all runs.
func (d *Differential) TriggeredBugs() []*buginject.Bug {
	seen := map[string]bool{}
	var out []*buginject.Bug
	for _, r := range d.Results {
		for _, b := range r.Triggered {
			if !seen[b.ID] {
				seen[b.ID] = true
				out = append(out, b)
			}
		}
	}
	return out
}

// DivergentBugs attributes the inconsistency: it returns the
// miscompilation bugs triggered on builds whose output differs from the
// modal (most common) output, with ties broken as in FirstDivergence.
// Bugs that fired on agreeing builds did not cause the divergence and
// are excluded — differential testing only ever reveals the defect that
// actually changed the output.
func (d *Differential) DivergentBugs() []*buginject.Bug {
	if !d.Inconsistent() {
		return nil
	}
	modal := d.modal()
	seen := map[string]bool{}
	var out []*buginject.Bug
	for _, r := range d.Results {
		if r.Result.OutputString() == modal {
			continue
		}
		for _, b := range r.Triggered {
			if b.Kind == buginject.Miscompile && !seen[b.ID] {
				seen[b.ID] = true
				out = append(out, b)
			}
		}
	}
	return out
}
