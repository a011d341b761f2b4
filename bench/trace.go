package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/buginject"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/jvm"
	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/reduce"
	"repro/internal/vm"
)

// A traced run measures every layer from outside, by timing calls into
// public functions: the tracedExecutor decorator at the exec boundary,
// the campaign's OnProgress hook for tasks, and after the campaign a
// replay of sampled executions through jvm.Run's stages, with a timedVM
// compiler decorator for JIT compiles. Spans stay in memory and are
// written out when the campaign is done.

// samplesPerCampaign is roughly how many Execute calls a traced campaign
// records for the stage replay; the stride is budget/samplesPerCampaign.
const samplesPerCampaign = 50

// span is one timed call. Times are nanoseconds since the tracer started;
// Parent is 0 for roots. Spans of one task share its span as parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	spans    []span
	campaign int // id of the campaign span
	task     int // id reserved for the task now running
	taskFrom int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// reserve allocates a span id whose fields are filled in later.
func (t *tracer) reserve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1})
	return len(t.spans)
}

func (t *tracer) set(id, parent int, name string, start, end int64) {
	t.mu.Lock()
	t.spans[id-1] = span{ID: id, Parent: parent, Name: name, Start: start, End: end}
	t.mu.Unlock()
}

// begin opens a span; end closes it.
func (t *tracer) begin(name string, parent int) int {
	id := t.reserve()
	t.set(id, parent, name, t.now(), 0)
	return id
}

func (t *tracer) end(id int) {
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) startCampaign() {
	t.campaign = t.begin("campaign", 0)
	task := t.reserve()
	now := t.now()
	t.mu.Lock()
	t.task, t.taskFrom = task, now
	t.mu.Unlock()
}

// taskDone closes the running task at an OnProgress call: a task's span
// runs from the previous merge to this one.
func (t *tracer) taskDone() {
	next := t.reserve()
	now := t.now()
	t.mu.Lock()
	t.spans[t.task-1] = span{ID: t.task, Parent: t.campaign, Name: "task", Start: t.taskFrom, End: now}
	t.task, t.taskFrom = next, now
	t.mu.Unlock()
}

func (t *tracer) endCampaign() { t.end(t.campaign) }

// currentTask is the parent for spans opened inside the running task.
func (t *tracer) currentTask() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.task
}

// snapshot returns the finished spans (reserved-but-unused ids dropped).
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.Name != "" && s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// layerData is a traced campaign's raw observations: samples, pooled
// across campaigns before percentiles are taken, and counters, summed.
type layerData struct {
	Samples map[string][]float64 `json:"samples"`
	Counts  map[string]float64   `json:"counts"`
}

func newLayerData() *layerData {
	return &layerData{Samples: map[string][]float64{}, Counts: map[string]float64{}}
}

func (d *layerData) add(name string, v float64)   { d.Samples[name] = append(d.Samples[name], v) }
func (d *layerData) count(name string, v float64) { d.Counts[name] += v }

func (d *layerData) merge(o *layerData) {
	for k, vs := range o.Samples {
		d.Samples[k] = append(d.Samples[k], vs...)
	}
	for k, v := range o.Counts {
		d.Counts[k] += v
	}
}

// spanSamples maps span names to the sample their durations feed.
var spanSamples = map[string]string{
	"exec.Execute":                 "exec.execute_us",
	"exec.ExecuteDifferential":     "exec.differential_ms",
	"exec.ExecutePlanDifferential": "exec.plan_differential_ms",
	"task":                         "core.task_ms",
	"jvm.Run":                      "jvm.run_us",
	"lang.CloneProgram":            "lang.clone_us",
	"lang.Check":                   "lang.check_us",
	"lang.Format":                  "lang.format_us",
	"bytecode.Compile":             "bytecode.compile_us",
	"bytecode.Verify":              "bytecode.verify_us",
	"jit.Compile":                  "jit.compile_us",
	"harness.Checkpoint.Save":      "harness.checkpoint_save_ms",
	"harness.LoadCheckpoint":       "harness.checkpoint_load_ms",
	"reduce.ReduceFinding":         "reduce.finding_ms",
	"corpus.ScoreSeeds":            "corpus.score_ms",
}

// addSpans derives duration samples from spans, plus the self-time
// figures: Machine.Run without its nested compiles, and the part of
// jvm.Run no stage span covers.
func (d *layerData) addSpans(spans []span) {
	self := selfTimes(spans)
	for _, s := range spans {
		dur := float64(s.End - s.Start)
		if name, ok := spanSamples[s.Name]; ok {
			d.add(name, dur/unitNanos(name))
		}
		switch s.Name {
		case "vm.Machine.Run":
			d.add("vm.run_self_us", float64(self[s.ID])/1e3)
			d.count("vm.run_self_ns", float64(self[s.ID]))
		case "jvm.Run":
			d.count("jvm.run_ns", dur)
			d.count("jvm.unattributed_ns", float64(self[s.ID]))
		case "jit.Compile":
			d.count("jit.compiles", 1)
			d.count("jit.compile_ns", dur)
		}
	}
}

// unitNanos is the divisor from nanoseconds to a sample's unit suffix.
func unitNanos(name string) float64 {
	if strings.HasSuffix(name, "_ms") {
		return 1e6
	}
	return 1e3
}

// sample is one recorded Execute call, kept for the stage replay.
type sample struct {
	prog *lang.Program
	spec jvm.Spec
	opt  jvm.Options
	out  string // OutputString recorded at the Execute boundary
}

// tracedExecutor decorates an exec.Executor: it times every call as a
// span under the running task, counts errors and backend faults, and
// keeps every stride-th Execute call (program cloned before the call) for
// the replay.
type tracedExecutor struct {
	inner  exec.Executor
	tr     *tracer
	ld     *layerData
	stride int
	wire   bool // also size the wire request of sampled calls

	mu      sync.Mutex
	calls   int
	busy    int64
	errors  int
	faults  int
	samples []sample
}

func (e *tracedExecutor) observe(name string, start int64, err error) {
	end := e.tr.now()
	e.tr.set(e.tr.reserve(), e.tr.currentTask(), name, start, end)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.busy += end - start
	if err != nil {
		e.errors++
		if harness.AsFault(err) != nil {
			e.faults++
		}
	}
}

func (e *tracedExecutor) Execute(ctx context.Context, p *lang.Program, spec jvm.Spec, opt jvm.Options) (*jvm.ExecResult, error) {
	e.mu.Lock()
	keep := e.calls%e.stride == 0
	e.calls++
	e.mu.Unlock()
	var clone *lang.Program
	if keep {
		clone = lang.CloneProgram(p)
	}
	start := e.tr.now()
	r, err := e.inner.Execute(ctx, p, spec, opt)
	e.observe("exec.Execute", start, err)
	if keep && err == nil {
		if e.wire {
			if req, rerr := exec.NewRequest(clone, spec, opt); rerr == nil {
				if data, merr := json.Marshal(req); merr == nil {
					e.ld.add("exec.wire_request_kb", float64(len(data))/1024)
				}
			}
		}
		e.mu.Lock()
		e.samples = append(e.samples, sample{prog: clone, spec: spec, opt: opt, out: r.Result.OutputString()})
		e.mu.Unlock()
	}
	return r, err
}

func (e *tracedExecutor) ExecuteDifferential(ctx context.Context, p *lang.Program, specs []jvm.Spec, opt jvm.Options) (*jvm.Differential, error) {
	start := e.tr.now()
	d, err := e.inner.ExecuteDifferential(ctx, p, specs, opt)
	e.observe("exec.ExecuteDifferential", start, err)
	return d, err
}

func (e *tracedExecutor) ExecutePlanDifferential(ctx context.Context, p *lang.Program, spec jvm.Spec, plans []*jit.Plan, opt jvm.Options) (*jvm.Differential, error) {
	start := e.tr.now()
	d, err := e.inner.ExecutePlanDifferential(ctx, p, spec, plans, opt)
	e.observe("exec.ExecutePlanDifferential", start, err)
	return d, err
}

// finish moves the decorator's counters into the layer data.
func (e *tracedExecutor) finish() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ld.count("exec.execute_calls", float64(e.calls))
	e.ld.count("exec.busy_s", float64(e.busy)/1e9)
	e.ld.count("exec.errors", float64(e.errors))
	e.ld.count("exec.faults", float64(e.faults))
}

// timedVM decorates the vm.Compiler a replayed Machine tiers up through,
// recording each compile as a span under the Machine.Run span.
type timedVM struct {
	inner  vm.Compiler
	tr     *tracer
	parent int
}

func (c *timedVM) Compile(fn *bytecode.Function, tier vm.Tier, env vm.Env) (vm.CompiledMethod, error) {
	id := c.tr.begin("jit.Compile", c.parent)
	defer c.tr.end(id)
	return c.inner.Compile(fn, tier, env)
}

// replayExecutions re-runs each sampled execution through the public
// stage functions in jvm.Run's order, each stage a span under a jvm.Run
// span, against a compile cache of its own. The replay must print what
// the campaign's execution printed; a mismatch fails the run.
func replayExecutions(tr *tracer, ld *layerData, samples []sample) error {
	cache := jit.NewCache(0)
	for i, s := range samples {
		res, err := replayRun(tr, s, cache)
		if err != nil {
			return fmt.Errorf("replay of sample %d: %w", i, err)
		}
		if got := res.OutputString(); got != s.out {
			return fmt.Errorf("replay of sample %d printed %q, the campaign's execution printed %q", i, got, s.out)
		}
		ld.count("replay.executions", 1)
		ld.count("vm.steps", float64(res.Steps))
		ld.count("vm.allocs", float64(res.AllocCount))
		ld.add("lang.stmts", float64(lang.CountStmts(s.prog)))
	}
	return nil
}

// replayRun is jvm.Run split into timed stages (keep the two in step;
// the output comparison in replayExecutions catches drift).
func replayRun(tr *tracer, s sample, cache *jit.Cache) (*vm.Result, error) {
	stage := func(name string, parent int, f func() error) error {
		id := tr.begin(name, parent)
		defer tr.end(id)
		return f()
	}
	var p *lang.Program
	stage("lang.CloneProgram", 0, func() error { p = lang.CloneProgram(s.prog); return nil })

	opt := s.opt
	root := tr.begin("jvm.Run", 0)
	defer tr.end(root)
	if err := stage("lang.Check", root, func() error { return lang.Check(p) }); err != nil {
		return nil, err
	}
	if opt.Plan != nil {
		if err := opt.Plan.Validate(); err != nil {
			return nil, err
		}
	}
	var img *bytecode.Image
	if err := stage("bytecode.Compile", root, func() (err error) { img, err = bytecode.Compile(p); return err }); err != nil {
		return nil, err
	}
	if err := stage("bytecode.Verify", root, func() error { return bytecode.Verify(img) }); err != nil {
		return nil, err
	}

	rec := profile.NewRecorder(opt.Flags)
	if opt.StructuredOBV {
		rec = profile.NewCounterRecorder(opt.Flags)
	}
	cov := coverage.NewTracker()
	cfg := vm.Config{MaxSteps: opt.MaxSteps, MaxHeapUnits: opt.MaxHeapUnits, Trace: cov.Hit, CompileOnly: opt.CompileOnly, CompileEager: opt.ForceCompile}
	var compiler *timedVM
	if !opt.PureInterpreter {
		var inj *buginject.Injector
		if opt.Bugs != nil {
			inj = buginject.NewInjectorFor(opt.Bugs)
		} else {
			inj = buginject.NewInjector(s.spec.Impl, s.spec.Version)
		}
		comp := jit.New(rec, cov, inj)
		if s.spec.Impl == buginject.OpenJ9 {
			comp.Opt.InlineBudgetC2 = 96
			comp.Opt.TrapLimit = 3
		}
		comp.Plan = opt.Plan
		if opt.CompileCache != nil {
			// jvm.Run's programFingerprint: the cache salt.
			comp.Cache = cache
			stage("lang.Format", root, func() error {
				h := fnv.New64a()
				io.WriteString(h, lang.Format(p))
				comp.CacheSalt = strconv.FormatUint(h.Sum64(), 16)
				return nil
			})
		}
		compiler = &timedVM{inner: comp, tr: tr}
		cfg.JIT = compiler
	}

	// The Machine.Run span is opened by hand so the compiler decorator
	// can parent its compile spans to it.
	runID := tr.begin("vm.Machine.Run", root)
	if compiler != nil {
		compiler.parent = runID
	}
	res := vm.NewMachine(img, cfg).Run()
	tr.end(runID)
	if opt.StructuredOBV {
		rec.OBV()
	} else if rec.Len() > 0 {
		profile.ExtractOBV(rec.Text())
	}
	return res, nil
}

// replayCheckpoint times loading the campaign's final checkpoint and
// saving it again, a few times each.
func replayCheckpoint(tr *tracer, ld *layerData, path, resaved string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	ld.add("harness.checkpoint_kb", float64(fi.Size())/1024)
	for i := 0; i < 5; i++ {
		id := tr.begin("harness.LoadCheckpoint", 0)
		ck, err := harness.LoadCheckpoint(path)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("harness.Checkpoint.Save", 0)
		err = ck.Save(resaved)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// maxReplayedReductions bounds the reduce replay per campaign.
const maxReplayedReductions = 3

// replayReductions re-reduces the campaign's first findings with the
// pipeline the triage worker uses.
func replayReductions(ctx context.Context, tr *tracer, ld *layerData, ex exec.Executor, findings []core.Finding) {
	n := 0
	for _, f := range findings {
		if f.Program == nil || n == maxReplayedReductions {
			continue
		}
		n++
		id := tr.begin("reduce.ReduceFinding", 0)
		r := (&reduce.Pipeline{Executor: ex}).ReduceFinding(ctx, f.Program, f.Bug, f.Target)
		tr.end(id)
		ld.add("reduce.tested_cands", float64(r.TestedCands))
		if r.StmtsBefore > 0 {
			ld.add("reduce.stmt_ratio", float64(r.StmtsAfter)/float64(r.StmtsBefore))
		}
	}
}

// runtimeSample is a reading of the Go runtime's own counters.
type runtimeSample struct {
	allocBytes, gcCycles, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	ms := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(ms)
	v := func(i int) float64 {
		switch ms[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(ms[i].Value.Uint64())
		case metrics.KindFloat64:
			return ms[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

// procStatusKB reads one "kB" field (VmHWM, VmRSS) of /proc/<pid>/status;
// 0 when unavailable.
func procStatusKB(pid, field string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb
		}
	}
	return 0
}
