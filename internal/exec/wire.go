package exec

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/buginject"
	"repro/internal/coverage"
	"repro/internal/jit"
	"repro/internal/jvm"
	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/vm"
)

// injectedDeathCode is the exit status of the "die" injection: an
// arbitrary non-reserved code with no stderr marker, so the parent's
// classifier sees the same shape as an external SIGKILL/OOM death.
const injectedDeathCode = 7

// WireVersion is the serve-mode protocol version. The parent and its
// minijvm children always ship from one module, so there is exactly one
// version, checked by equality: on the child's hello, on every batch
// frame the child reads, and on every batch response the parent reads.
// A stale binary on either side fails loudly instead of silently
// misreporting results. Bump it whenever a frame's shape changes.
const WireVersion = 4

// ServerHello is the first line a `minijvm -exec-serve` child writes on
// stdout: the wire version it speaks plus its pid (so parents can
// report which child died without platform-specific process digging).
type ServerHello struct {
	Version int `json:"version"`
	PID     int `json:"pid"`
}

// BatchRequest is one serve-mode round trip: N executions encoded as a
// single NDJSON line. Batching amortizes the pipe round trip and lets a
// whole differential (one request per spec) ride one frame.
type BatchRequest struct {
	Version  int        `json:"version"`
	Requests []*Request `json:"requests"`
}

// BatchResponse answers a BatchRequest: Responses[i] corresponds to
// Requests[i], and Telemetry carries the child's self-reported state so
// the parent can recycle it before memory bloat matters.
type BatchResponse struct {
	Version   int            `json:"version"`
	Responses []*Response    `json:"responses"`
	Telemetry ChildTelemetry `json:"telemetry"`
}

// decodeBatchRequest is the child side's frame check: one NDJSON line
// must be a BatchRequest at WireVersion whose every entry is a request.
// An error means the frame is unusable and the child exits
// ExitRequestError.
func decodeBatchRequest(line []byte) (*BatchRequest, error) {
	var b BatchRequest
	if err := json.Unmarshal(line, &b); err != nil {
		return nil, fmt.Errorf("exec: decode batch: %w", err)
	}
	if b.Version != WireVersion {
		return nil, fmt.Errorf("exec: batch wire version %d, child speaks %d", b.Version, WireVersion)
	}
	for i, r := range b.Requests {
		if r == nil {
			return nil, fmt.Errorf("exec: batch request %d is null", i)
		}
	}
	return &b, nil
}

// decodeBatchResponse is the parent side's frame check: one NDJSON line
// must be a BatchResponse at WireVersion carrying exactly n non-nil
// responses, one per request sent. Any error is a corrupt frame.
func decodeBatchResponse(line []byte, n int) (*BatchResponse, error) {
	var b BatchResponse
	if err := json.Unmarshal(line, &b); err != nil {
		return nil, fmt.Errorf("corrupt batch frame: %w", err)
	}
	if b.Version != WireVersion {
		return nil, fmt.Errorf("corrupt batch frame: wire version %d, parent speaks %d", b.Version, WireVersion)
	}
	if len(b.Responses) != n {
		return nil, fmt.Errorf("corrupt batch frame: %d responses to %d requests", len(b.Responses), n)
	}
	for i, r := range b.Responses {
		if r == nil {
			return nil, fmt.Errorf("corrupt batch frame: response %d is null", i)
		}
	}
	return &b, nil
}

// ChildTelemetry is the child's self-report after each batch:
// cumulative executions served and the Go heap high-water proxy
// (runtime.MemStats.HeapAlloc). Informational only — never part of
// result comparison — but the pool's recycle policy reads it.
type ChildTelemetry struct {
	Executions int64  `json:"executions"`
	HeapBytes  uint64 `json:"heap_bytes"`
}

// Child exit codes for `minijvm -exec-serve`. JVM-level outcomes (crash,
// timeout, heap exhaustion) and program-level rejections are in-band —
// the child answers with a Response describing them. Only harness-level
// failures reach the exit status:
//
//	ExitOK           stdin closed after the last batch was answered
//	ExitRequestError frame unusable (malformed JSON, wrong version, null entry)
//	ExitPanic        a Go panic escaped the substrate (the runtime's own
//	                 status for an uncaught panic; "panic:" + stack on
//	                 stderr) — classified FaultHarness by the parent
//
// A child killed by the parent's watchdog has no exit code of its own
// (signal death) and is classified FaultTimeout.
const (
	ExitOK           = 0
	ExitRequestError = 1
	ExitPanic        = 2 // Go runtime convention, listed for the classifier
)

// Request is one execution order sent to the child on stdin.
type Request struct {
	Spec    string         `json:"spec"` // jvm.Spec.Name form, e.g. "openjdk-17"
	Source  string         `json:"source"`
	Options RequestOptions `json:"options"`
	// Inject is a harness-test seam: "panic" makes the child panic after
	// decoding the request, "hang" makes it block forever, "die" makes
	// it exit abruptly (the SIGKILL-shaped death, no panic marker), and
	// "corrupt" makes a serve-mode child emit a garbage frame instead of
	// the batch response — the child-process analogues of the in-process
	// CompileHook fault injector, used to pin fault classification.
	// Production parents never set it.
	Inject string `json:"inject,omitempty"`
}

// RequestOptions is the serializable subset of jvm.Options. CompileHook
// (an arbitrary function) cannot cross the process boundary and
// CompileCache is child-local, so neither appears here.
type RequestOptions struct {
	Flags           []string `json:"flags,omitempty"` // profile.FlagSet.Names encoding
	ForceCompile    bool     `json:"force_compile,omitempty"`
	CompileOnly     string   `json:"compile_only,omitempty"`
	MaxSteps        int64    `json:"max_steps,omitempty"`
	MaxHeapUnits    int64    `json:"max_heap_units,omitempty"`
	PureInterpreter bool     `json:"pure_interpreter,omitempty"`
	StructuredOBV   bool     `json:"structured_obv,omitempty"`
	// Coverage asks the child to report which VM regions the run hit;
	// the parent merges them into its tracker.
	Coverage bool `json:"coverage,omitempty"`
	// BugsOverride + BugIDs mirror jvm.Options.Bugs, whose nil/empty
	// distinction matters: nil keeps the spec's armed set, an empty
	// override disarms every bug (the DisableBugs ablation).
	BugsOverride bool     `json:"bugs_override,omitempty"`
	BugIDs       []string `json:"bug_ids,omitempty"`
	// Plan mirrors jvm.Options.Plan (a fuzzed compilation plan; nil =
	// the fixed default pipeline).
	Plan *jit.Plan `json:"plan,omitempty"`
}

// Response is the child's answer on stdout.
type Response struct {
	// Error reports a program-level rejection (parse/type/verify), the
	// in-band equivalent of jvm.Run returning an error. Exclusive with
	// Result.
	Error   string   `json:"error,omitempty"`
	Result  *WireRun `json:"result,omitempty"`
	Timings Timings  `json:"timings"`
}

// Timings carries the child's own wall-clock measurements, informational
// only (never part of result comparison).
type Timings struct {
	TotalMicros int64 `json:"total_micros"`
}

// WireCrash is the serialized vm.Crash.
type WireCrash struct {
	BugID     string `json:"bug_id"`
	Component string `json:"component"`
	Message   string `json:"message"`
	FnKey     string `json:"fn_key"`
}

// WireRun is the serialized execution outcome: vm.Result plus the
// jvm.ExecResult envelope (log, OBV, triggered bugs, compilations).
type WireRun struct {
	Output        []string       `json:"output,omitempty"`
	ExceptionCode *int64         `json:"exception_code,omitempty"`
	Crash         *WireCrash     `json:"crash,omitempty"`
	TimedOut      bool           `json:"timed_out,omitempty"`
	HeapExhausted bool           `json:"heap_exhausted,omitempty"`
	MonitorLeaks  int            `json:"monitor_leaks,omitempty"`
	Steps         int64          `json:"steps"`
	GCCycles      int            `json:"gc_cycles"`
	AllocCount    int            `json:"alloc_count"`
	Tiers         map[string]int `json:"tiers,omitempty"`
	Deopts        int            `json:"deopts"`

	Log          string   `json:"log,omitempty"`
	OBV          []int64  `json:"obv"`
	Triggered    []string `json:"triggered,omitempty"` // bug catalog IDs, in trigger order
	Compiled     int      `json:"compiled"`
	CoverageHits []string `json:"coverage_hits,omitempty"`
}

// NewRequest builds the wire request for one execution. It fails when
// the options carry state that cannot cross the process boundary.
func NewRequest(p *lang.Program, spec jvm.Spec, opt jvm.Options) (*Request, error) {
	if opt.CompileHook != nil {
		return nil, fmt.Errorf("exec: CompileHook cannot be serialized to a child-process backend; use InProcess")
	}
	req := &Request{
		Spec:   spec.Name(),
		Source: lang.Format(p),
		Options: RequestOptions{
			Flags:           opt.Flags.Names(),
			ForceCompile:    opt.ForceCompile,
			CompileOnly:     opt.CompileOnly,
			MaxSteps:        opt.MaxSteps,
			MaxHeapUnits:    opt.MaxHeapUnits,
			PureInterpreter: opt.PureInterpreter,
			StructuredOBV:   opt.StructuredOBV,
			Coverage:        opt.Coverage != nil,
			Plan:            opt.Plan,
		},
	}
	if opt.Bugs != nil {
		req.Options.BugsOverride = true
		for _, b := range opt.Bugs {
			req.Options.BugIDs = append(req.Options.BugIDs, b.ID)
		}
	}
	return req, nil
}

// run executes the request against the in-process substrate — the child
// side of the protocol. Program-level errors become Response.Error;
// injected faults escape deliberately (that is their point). Serve-mode
// children thread one compile cache across every request they handle —
// legal because the cache is transparent (a hit is byte-equivalent to
// recompiling, pinned by TestCompileCacheTransparent) and the single
// biggest amortization the warm pool buys.
func (r *Request) run(cache *jit.Cache) *Response {
	start := time.Now()
	resp := &Response{}
	fail := func(err error) *Response {
		resp.Error = err.Error()
		resp.Timings.TotalMicros = time.Since(start).Microseconds()
		return resp
	}
	switch r.Inject {
	case "", "corrupt": // "corrupt" is the serve loop's job (frame-level)
	case "panic":
		panic("exec: injected fault (panic)")
	case "hang":
		for { // block until the parent's watchdog kills us (a bare
			time.Sleep(time.Hour) // select{} would trip the deadlock detector)
		}
	case "die":
		os.Exit(injectedDeathCode) // abrupt, marker-less death: the SIGKILL shape
	default:
		return fail(fmt.Errorf("exec: unknown fault injection %q", r.Inject))
	}
	spec, err := jvm.ParseSpec(r.Spec)
	if err != nil {
		return fail(err)
	}
	p, err := lang.Parse(r.Source)
	if err != nil {
		return fail(err)
	}
	opt := jvm.Options{
		Flags:           profile.FlagSetFromNames(r.Options.Flags),
		ForceCompile:    r.Options.ForceCompile,
		CompileOnly:     r.Options.CompileOnly,
		MaxSteps:        r.Options.MaxSteps,
		MaxHeapUnits:    r.Options.MaxHeapUnits,
		PureInterpreter: r.Options.PureInterpreter,
		StructuredOBV:   r.Options.StructuredOBV,
		CompileCache:    cache,
		Plan:            r.Options.Plan,
	}
	if r.Options.BugsOverride {
		opt.Bugs = []*buginject.Bug{}
		for _, id := range r.Options.BugIDs {
			b := buginject.ByID(id)
			if b == nil {
				return fail(fmt.Errorf("exec: unknown bug %q in override (catalog skew)", id))
			}
			opt.Bugs = append(opt.Bugs, b)
		}
	}
	if r.Options.Coverage {
		opt.Coverage = coverage.NewTracker()
	}
	res, err := jvm.Run(p, spec, opt)
	if err != nil {
		return fail(err)
	}
	resp.Result = encodeRun(res)
	resp.Result.CoverageHits = opt.Coverage.Names()
	resp.Timings.TotalMicros = time.Since(start).Microseconds()
	return resp
}

// encodeRun serializes an in-process execution outcome.
func encodeRun(res *jvm.ExecResult) *WireRun {
	r := res.Result
	w := &WireRun{
		Output:        r.Output,
		TimedOut:      r.TimedOut,
		HeapExhausted: r.HeapExhausted,
		MonitorLeaks:  r.MonitorLeaks,
		Steps:         r.Steps,
		GCCycles:      r.GCCycles,
		AllocCount:    r.AllocCount,
		Deopts:        r.Deopts,
		Log:           res.Log,
		OBV:           res.OBV.Slice(),
		Compiled:      res.Compiled,
	}
	if r.Exception != nil {
		code := r.Exception.Code
		w.ExceptionCode = &code
	}
	if r.Crash != nil {
		w.Crash = &WireCrash{BugID: r.Crash.BugID, Component: r.Crash.Component, Message: r.Crash.Message, FnKey: r.Crash.FnKey}
	}
	if len(r.Tiers) > 0 {
		w.Tiers = map[string]int{}
		for k, t := range r.Tiers {
			w.Tiers[k] = int(t)
		}
	}
	for _, b := range res.Triggered {
		w.Triggered = append(w.Triggered, b.ID)
	}
	return w
}

// decodeRun reconstructs the parent-side ExecResult. Triggered bugs are
// re-resolved from the catalog (both processes run the same build, so an
// unknown ID means binary skew and is an error, not a silent drop).
func decodeRun(w *WireRun, spec jvm.Spec) (*jvm.ExecResult, error) {
	obv, err := profile.OBVFromSlice(w.OBV)
	if err != nil {
		return nil, err
	}
	r := &vm.Result{
		Output:        w.Output,
		TimedOut:      w.TimedOut,
		HeapExhausted: w.HeapExhausted,
		MonitorLeaks:  w.MonitorLeaks,
		Steps:         w.Steps,
		GCCycles:      w.GCCycles,
		AllocCount:    w.AllocCount,
		Deopts:        w.Deopts,
	}
	if w.ExceptionCode != nil {
		r.Exception = &vm.Thrown{Code: *w.ExceptionCode}
	}
	if w.Crash != nil {
		r.Crash = &vm.Crash{BugID: w.Crash.BugID, Component: w.Crash.Component, Message: w.Crash.Message, FnKey: w.Crash.FnKey}
	}
	// The machine always materializes Tiers, so reconstruct a non-nil
	// map even when no method tiered up (keeps the decoded result
	// DeepEqual to the in-process one).
	r.Tiers = map[string]vm.Tier{}
	for k, t := range w.Tiers {
		r.Tiers[k] = vm.Tier(t)
	}
	res := &jvm.ExecResult{
		Spec:     spec,
		Result:   r,
		Log:      w.Log,
		OBV:      obv,
		Compiled: w.Compiled,
	}
	for _, id := range w.Triggered {
		b := buginject.ByID(id)
		if b == nil {
			return nil, fmt.Errorf("exec: child reported unknown bug %q (catalog skew)", id)
		}
		res.Triggered = append(res.Triggered, b)
	}
	return res, nil
}
