package vm

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/bytecode"
)

// Config tunes a Machine. Zero values select the defaults noted below.
type Config struct {
	C1Threshold int // invocations before C1 compilation (default 50)
	C2Threshold int // invocations before C2 compilation (default 500)
	// CompileEager mirrors -Xcomp: every method compiles at C2 on its
	// first invocation (the paper's forced-compilation setting; our
	// interpreter has no on-stack replacement, so hot entry-point loops
	// would otherwise never reach the JIT).
	CompileEager bool
	// CompileOnly mirrors -XX:CompileCommand=compileonly,C::m — when
	// non-empty, only the method with this key ("Class.method") is JIT
	// compiled; everything else stays interpreted.
	CompileOnly string
	MaxSteps    int64 // fuel budget (default 30,000,000)
	// MaxHeapUnits caps cumulative allocation units (objects + boxes +
	// array elements), the OutOfMemoryError analogue to the MaxSteps
	// fuel model. Default 64,000,000 — high enough that no well-formed
	// workload hits it; negative disables the cap.
	MaxHeapUnits int64
	GCEvery      int // allocations between GC cycles (default 4096)

	// JIT is the pluggable compiler; nil leaves the machine in pure
	// interpreter mode (the reference semantics).
	JIT Compiler

	// OnCompile, if set, observes each successful tier-up.
	OnCompile func(fn *bytecode.Function, tier Tier)
	// OnGC, if set, observes each collection cycle.
	OnGC func(live, freed int)

	// Trace, if set, receives named runtime events (the coverage
	// instrumentation channel; region names per coverage.Catalog).
	Trace func(event string)
}

func (c Config) withDefaults() Config {
	if c.C1Threshold == 0 {
		c.C1Threshold = 50
	}
	if c.C2Threshold == 0 {
		c.C2Threshold = 500
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 30_000_000
	}
	if c.MaxHeapUnits == 0 {
		c.MaxHeapUnits = 64_000_000
	}
	if c.GCEvery == 0 {
		c.GCEvery = 4096
	}
	return c
}

// MethodProfile accumulates the interpreter's hotness counters for one
// method, the signal the tier-up policy reads.
type MethodProfile struct {
	Invocations int
	Backedges   int64
	Deopts      int
}

// Hotness folds loop activity into the invocation count the way tiered
// compilation policies weight on-stack loops.
func (p *MethodProfile) Hotness() int {
	return p.Invocations + int(p.Backedges/8)
}

// Result is the outcome of one program execution.
type Result struct {
	Output        []string
	Exception     *Thrown // uncaught exception, if any
	Crash         *Crash  // JVM-level crash, if any
	TimedOut      bool
	HeapExhausted bool // heap-allocation budget blown (OutOfMemoryError analogue)

	MonitorLeaks int // monitors still held at exit (compiler defect symptom)
	Steps        int64
	GCCycles     int
	AllocCount   int
	Tiers        map[string]Tier // final tier per method key
	Deopts       int             // total code invalidations
}

// Crashed reports whether the run ended in a JVM crash.
func (r *Result) Crashed() bool { return r.Crash != nil }

// OutputString joins the output channel into one comparable string,
// including the termination status, so differential testing sees
// exceptions and leaks too.
func (r *Result) OutputString() string {
	var b strings.Builder
	for _, line := range r.Output {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	switch {
	case r.Crash != nil:
		fmt.Fprintf(&b, "<crash %s>", r.Crash.BugID)
	case r.Exception != nil:
		fmt.Fprintf(&b, "<uncaught %d>", r.Exception.Code)
	case r.TimedOut:
		b.WriteString("<timeout>")
	case r.HeapExhausted:
		b.WriteString("<heap-exhausted>")
	}
	if r.MonitorLeaks > 0 {
		fmt.Fprintf(&b, "<monitor-leak %d>", r.MonitorLeaks)
	}
	return b.String()
}

// Machine executes one program image. A Machine is single-use: create,
// Run once, inspect the Result. It is also the runtime compiled code
// calls into: allocation, statics, calls, monitors, output and fuel.
type Machine struct {
	img     *bytecode.Image
	cfg     Config
	Heap    *Heap
	heapCap int64 // MaxHeapUnits, or MaxInt64 when uncapped

	// statics holds one slot per Image.Statics entry, then one per
	// undeclared static written by name (extraStatics maps those).
	statics      []Value
	extraStatics map[staticKey]int
	strMons      map[string]*Object
	classMons    map[string]*Object

	output []string
	steps  int64
	// limit is the step count past which Step fails: MaxSteps, lowered
	// to the current step count once the heap cap is crossed.
	limit int64

	fns []fnState // per-function runtime state, indexed by Function.ID

	heldMonitors int
	frames       []*frame

	argBufs  [][]Value // LIFO freelist of call-argument buffers
	rootsBuf []Value   // reused GC root scratch

	layouts map[string]*Layout // per-class instance fields (fieldLayout)
}

// fnState is one function's runtime state. The interpreter reaches it
// through Function.ID; the JIT and tests name the function by key.
type fnState struct {
	prof   MethodProfile
	code   CompiledMethod // nil while the function runs interpreted
	tier   Tier
	tiered bool // tier was set at least once, so Result.Tiers lists it
}

// staticKey names an undeclared static field.
type staticKey struct{ class, field string }

type frame struct {
	fn     *bytecode.Function
	locals []Value
	stack  []Value // MaxStack slots
	sp     int     // the live stack[:sp], stored before each allocation or call
	mons   []monEntry
}

// framePool recycles interpreter frames across calls (and across
// machines — campaign workers each run millions of calls, and a frame
// plus its locals slice used to be two heap allocations per call).
// Frames are strictly LIFO per machine, so a frame returned in
// interpret's epilogue is never referenced again: m.frames has already
// popped it and GC root scans only walk live frames.
var framePool = sync.Pool{New: func() any { return &frame{} }}

// newFrame returns a cleared frame with locals and stack sized for fn.
// Reused locals and stack slots are already zero, since freeFrame
// clears every slot a frame used; the monitor slice keeps its capacity,
// length zero.
func newFrame(fn *bytecode.Function) *frame {
	f := framePool.Get().(*frame)
	f.fn = fn
	if cap(f.locals) < fn.NLocals {
		f.locals = make([]Value, fn.NLocals)
	} else {
		f.locals = f.locals[:fn.NLocals]
	}
	if cap(f.stack) < fn.MaxStack {
		f.stack = make([]Value, fn.MaxStack)
	} else {
		f.stack = f.stack[:fn.MaxStack]
	}
	f.sp = 0
	f.mons = f.mons[:0]
	return f
}

// freeFrame returns a frame to the pool. Slices are kept for capacity
// reuse but their contents cleared so the pool does not pin dead heap
// objects between runs.
func freeFrame(f *frame) {
	f.fn = nil
	clear(f.locals)
	clear(f.stack)
	f.mons = f.mons[:0]
	framePool.Put(f)
}

// getArgs pops a call-argument buffer of length n from the machine's
// freelist (calls nest LIFO, so buffers released in call order are
// immediately reusable by the next sibling call).
func (m *Machine) getArgs(n int) []Value {
	if k := len(m.argBufs); k > 0 {
		buf := m.argBufs[k-1]
		m.argBufs = m.argBufs[:k-1]
		if cap(buf) >= n {
			return buf[:n]
		}
		// Undersized: drop it so the freelist converges on the widest
		// call signatures instead of wedging behind a narrow buffer.
	}
	return make([]Value, n)
}

// putArgs returns a buffer once the call has copied the values out
// (interpreted frames copy into locals, compiled code into its scope
// stack — neither retains the slice). Only buf's length can have been
// written: the rest was cleared when the buffer was last returned.
func (m *Machine) putArgs(buf []Value) {
	clear(buf)
	m.argBufs = append(m.argBufs, buf)
}

type monEntry struct {
	mon *Monitor
	v   Value
}

// NewMachine builds a machine for the image.
func NewMachine(img *bytecode.Image, cfg Config) *Machine {
	cfg = cfg.withDefaults()
	m := &Machine{
		img:     img,
		cfg:     cfg,
		Heap:    NewHeap(cfg.GCEvery),
		heapCap: cfg.MaxHeapUnits,
		limit:   cfg.MaxSteps,
		statics: make([]Value, len(img.Statics)),
		fns:     make([]fnState, len(img.Functions())),
	}
	if m.heapCap <= 0 {
		m.heapCap = math.MaxInt64
	}
	m.Heap.SetGCHook(cfg.OnGC)
	for i, s := range img.Statics {
		if s.IsRef {
			m.statics[i] = NullVal()
		} else {
			m.statics[i] = IntVal(0)
		}
	}
	return m
}

func (m *Machine) trace(event string) {
	if m.cfg.Trace != nil {
		m.cfg.Trace(event)
	}
}

// Run executes the program to completion and returns the result.
func (m *Machine) Run() *Result {
	m.trace("runtime.startup")
	m.trace("runtime.interp.core")
	entry := m.img.Entry()
	var err error
	if entry == nil {
		err = errors.New("vm: image has no entry point")
	} else {
		_, err = m.CallFunction(entry, nil)
	}
	res := &Result{
		Output:       m.output,
		Steps:        m.steps,
		GCCycles:     m.Heap.GCCycles,
		AllocCount:   m.Heap.AllocCount,
		MonitorLeaks: m.heldMonitors,
		Tiers:        map[string]Tier{},
	}
	for i, fn := range m.img.Functions() {
		st := &m.fns[i]
		if st.tiered {
			res.Tiers[fn.Key()] = st.tier
		}
		res.Deopts += st.prof.Deopts
	}
	switch e := err.(type) {
	case nil:
	case *Thrown:
		res.Exception = e
	case *Crash:
		res.Crash = e
	default:
		if errors.Is(err, ErrTimeout) {
			res.TimedOut = true
		} else if errors.Is(err, ErrHeapExhausted) {
			res.HeapExhausted = true
		} else if errors.Is(err, ErrIllegalMonitor) {
			// An unbalanced monitor exit escaping to top level is a
			// compiler defect symptom; surface it as a crash.
			res.Crash = &Crash{BugID: "illegal-monitor", Component: "Runtime", Message: err.Error()}
		} else {
			res.Crash = &Crash{BugID: "internal", Component: "Runtime", Message: err.Error()}
		}
	}
	return res
}

// stateOf returns the state of the function with the given key, or
// nil when the image has none. A key declared twice names its first
// function.
func (m *Machine) stateOf(key string) *fnState {
	for _, fn := range m.img.Functions() {
		if fn.Key() == key {
			return &m.fns[fn.ID]
		}
	}
	return nil
}

// Profile returns the profile of the method with the given key: the
// one its calls update, whether or not it has run yet. A key naming no
// method gets a fresh profile nothing updates.
func (m *Machine) Profile(key string) *MethodProfile {
	if st := m.stateOf(key); st != nil {
		return &st.prof
	}
	return &MethodProfile{}
}

// CallFunction invokes fn through the tiering machinery. args holds the
// receiver (for instance methods) followed by the parameters.
func (m *Machine) CallFunction(fn *bytecode.Function, args []Value) (Value, error) {
	st := &m.fns[fn.ID]
	st.prof.Invocations++
	m.trace("runtime.interp.calls")
	if err := m.tierUp(fn, st); err != nil {
		return Value{}, err
	}

	// Synchronized methods lock the receiver (or the class object).
	var syncVal Value
	if fn.Synchronized {
		if fn.HasReceiver {
			syncVal = args[0]
		} else {
			syncVal = ObjVal(m.classMonitor(fn.Class))
		}
		if err := m.MonitorEnter(syncVal); err != nil {
			return Value{}, err
		}
	}

	var ret Value
	var err error
	if st.code != nil {
		ret, err = st.code.Invoke(args)
	} else {
		ret, err = m.interpret(fn, &st.prof, args)
	}

	if fn.Synchronized {
		// Release on both normal and exceptional exit (the VM runtime,
		// not the compiled code, owns method-level sync).
		if exitErr := m.MonitorExit(syncVal); exitErr != nil && err == nil {
			err = exitErr
		}
	}
	return ret, err
}

func (m *Machine) tierUp(fn *bytecode.Function, st *fnState) error {
	if m.cfg.JIT == nil {
		return nil
	}
	if m.cfg.CompileOnly != "" && fn.Key() != m.cfg.CompileOnly {
		return nil
	}
	cur := st.tier
	hot := st.prof.Hotness()
	var want Tier
	switch {
	case m.cfg.CompileEager:
		// -Xcomp with tiering: C1 on the first invocation, C2 on the
		// next, so both pipelines run for every compiled method.
		if cur < TierC1 {
			want = TierC1
		} else {
			want = TierC2
		}
	case hot >= m.cfg.C2Threshold:
		want = TierC2
	case hot >= m.cfg.C1Threshold:
		want = TierC1
	default:
		return nil
	}
	if want <= cur {
		return nil
	}
	cm, err := m.cfg.JIT.Compile(fn, want, m)
	if err != nil {
		var crash *Crash
		if errors.As(err, &crash) {
			return crash
		}
		// Compilation bailout: stay at the current tier, but record the
		// attempt so we don't retry every call.
		st.tier, st.tiered = want, true
		return nil
	}
	st.code = cm
	st.tier, st.tiered = want, true
	if m.cfg.OnCompile != nil {
		m.cfg.OnCompile(fn, want)
	}
	return nil
}

func (m *Machine) classMonitor(class string) *Object {
	o := m.classMons[class]
	if o == nil {
		if m.classMons == nil {
			m.classMons = map[string]*Object{}
		}
		o = &Object{layout: &Layout{Class: class + "$Class"}}
		m.classMons[class] = o
	}
	return o
}

// --- Runtime services for compiled code and the JIT ---

// NewObject allocates a class instance with zeroed fields.
func (m *Machine) NewObject(class string) Value {
	v := ObjVal(m.Heap.NewObject(m.fieldLayout(class)))
	m.trace("runtime.objects")
	m.trace("gc.alloc.fast")
	m.allocated()
	return v
}

// fieldLayout returns class's instance-field layout, built from the
// class file on the class's first allocation and reused after that.
// Unknown classes get a name-only layout. A name declared twice gets
// one slot whose zero is the last declaration's, as if each object's
// fields were a map filled in declaration order.
func (m *Machine) fieldLayout(class string) *Layout {
	if l, ok := m.layouts[class]; ok {
		return l
	}
	if m.layouts == nil {
		m.layouts = map[string]*Layout{}
	}
	l := &Layout{Class: class}
	if cf := m.img.Class(class); cf != nil {
		for _, f := range cf.Fields {
			if f.Static {
				continue
			}
			zero := IntVal(0)
			if f.IsRef {
				zero = NullVal()
			}
			if i := l.index(f.Name); i >= 0 {
				l.Zeros[i] = zero
				continue
			}
			l.Names = append(l.Names, f.Name)
			l.Zeros = append(l.Zeros, zero)
		}
	}
	m.layouts[class] = l
	return l
}

// NewBox allocates an Integer box.
func (m *Machine) NewBox(v int64) Value {
	b := BoxVal(m.Heap.NewBox(v))
	m.trace("runtime.boxing")
	m.trace("gc.alloc.fast")
	m.allocated()
	return b
}

// NewArray allocates an int array.
func (m *Machine) NewArray(n int64) Value {
	a := ArrVal(m.Heap.NewArray(n))
	m.trace("runtime.arrays")
	m.trace("gc.alloc.fast")
	if n > 1000 {
		m.trace("gc.large")
	}
	m.allocated()
	return a
}

// allocated does the bookkeeping every allocation owes. Allocation
// sites have no error channel, so crossing the heap cap lowers the step
// limit to the current step count: the next step fails, from
// interpreted and compiled code alike. Then a collection runs if one is
// due.
func (m *Machine) allocated() {
	if m.Heap.Units > m.heapCap {
		m.limit = min(m.limit, m.steps)
	}
	if !m.Heap.NeedsGC() {
		return
	}
	m.trace("gc.alloc.slow")
	m.trace("gc.mark")
	m.trace("gc.sweep")
	m.trace("gc.roots.statics")
	if len(m.frames) > 0 {
		m.trace("gc.roots.frames")
	}
	roots := append(m.rootsBuf[:0], m.statics...)
	for _, f := range m.frames {
		roots = append(roots, f.locals...)
		roots = append(roots, f.stack[:f.sp]...)
		for _, me := range f.mons {
			roots = append(roots, me.v)
		}
	}
	for _, o := range m.strMons {
		roots = append(roots, ObjVal(o))
	}
	m.Heap.Collect(roots)
	m.rootsBuf = roots
}

// staticSlot returns the slot of the named static field, or -1 when
// the image does not declare it and nothing has written it.
func (m *Machine) staticSlot(class, field string) int {
	if i := m.img.StaticSlot(class, field); i >= 0 {
		return i
	}
	if i, ok := m.extraStatics[staticKey{class, field}]; ok {
		return i
	}
	return -1
}

// GetStatic reads a static field by name (compiled code's path; the
// interpreter reads the slot its field ref was linked to). A static
// nothing declared or wrote reads as Value{}.
func (m *Machine) GetStatic(class, field string) Value {
	m.trace("runtime.statics")
	if i := m.staticSlot(class, field); i >= 0 {
		return m.statics[i]
	}
	return Value{}
}

// SetStatic writes a static field by name, giving an undeclared one a
// slot of its own.
func (m *Machine) SetStatic(class, field string, v Value) {
	i := m.staticSlot(class, field)
	if i < 0 {
		if m.extraStatics == nil {
			m.extraStatics = map[staticKey]int{}
		}
		i = len(m.statics)
		m.extraStatics[staticKey{class, field}] = i
		m.statics = append(m.statics, Value{})
	}
	m.statics[i] = v
}

// StringMonitor interns the shared lock object for a string literal.
func (m *Machine) StringMonitor(s string) *Object {
	o := m.strMons[s]
	if o == nil {
		if m.strMons == nil {
			m.strMons = map[string]*Object{}
		}
		o = &Object{layout: stringLayout}
		m.strMons[s] = o
	}
	return o
}

// Call dispatches a method reference through tiering. Calls reach an
// interpreted or a compiled callee alike; recv is ignored for static
// targets.
func (m *Machine) Call(ref bytecode.MethodRef, recv Value, args []Value) (Value, error) {
	fn := m.img.Lookup(ref)
	if fn == nil {
		return Value{}, fmt.Errorf("vm: unresolvable method %s", ref)
	}
	callArgs := args
	if !ref.Static {
		if recv.Kind == KNull {
			return Value{}, &Thrown{Code: bytecode.ExcNullPointer}
		}
		// Prepend the receiver via the argument freelist: callees copy
		// the values out (interpreted frames into locals, compiled code
		// into its scope stack) before returning, so the buffer is free
		// again once CallFunction completes.
		callArgs = m.getArgs(len(args) + 1)
		callArgs[0] = recv
		copy(callArgs[1:], args)
	}
	ret, err := m.CallFunction(fn, callArgs)
	if !ref.Static {
		m.putArgs(callArgs)
	}
	return ret, err
}

// MonitorEnter enters the monitor of a reference value. Enter and Exit
// return ErrIllegalMonitor on imbalance; compiled code balances its
// own regions (seeded bugs deliberately break this, and the machine
// observes the leak).
func (m *Machine) MonitorEnter(v Value) error {
	mon := m.monitorOf(v)
	if mon == nil {
		return &Thrown{Code: bytecode.ExcNullPointer}
	}
	m.trace("runtime.monitors")
	if mon.Depth > 0 {
		m.trace("runtime.monitors.nested")
	}
	mon.Depth++
	m.heldMonitors++
	return nil
}

// MonitorExit exits the monitor of a reference value.
func (m *Machine) MonitorExit(v Value) error {
	mon := m.monitorOf(v)
	if mon == nil {
		return &Thrown{Code: bytecode.ExcNullPointer}
	}
	if mon.Depth == 0 {
		return ErrIllegalMonitor
	}
	mon.Depth--
	m.heldMonitors--
	return nil
}

func (m *Machine) monitorOf(v Value) *Monitor {
	switch v.Kind {
	case KObj, KBox:
		if o := v.Obj(); o != nil {
			return &o.Mon
		}
	case KArr:
		if a := v.Arr(); a != nil {
			return &a.Mon
		}
	case KStr:
		return &m.StringMonitor(v.Str()).Mon
	}
	return nil
}

// HeldMonitors reports the number of currently held monitor entries.
func (m *Machine) HeldMonitors() int { return m.heldMonitors }

// Print appends a value to the program output channel.
func (m *Machine) Print(v Value) {
	m.output = append(m.output, v.String())
}

// Step consumes one unit of fuel; it returns ErrTimeout when the budget
// is gone. It is also where the heap-allocation cap surfaces: the
// allocation that crosses the cap lowers the step limit (allocated), so
// the first step after it fails with ErrHeapExhausted. Compiled code
// steps every statement and the interpreter every instruction, or every
// block it charges whole (interpret). Step is one compare, small enough
// to inline into every caller; stepFail sorts out which limit was
// crossed.
func (m *Machine) Step() error {
	m.steps++
	if m.steps > m.limit {
		return m.stepFail()
	}
	return nil
}

// stepFail names the limit a step crossed. Timeout wins when both are.
func (m *Machine) stepFail() error {
	if m.steps > m.cfg.MaxSteps {
		return ErrTimeout
	}
	return ErrHeapExhausted
}

// InvalidateCode deopts a method back to the interpreter, until it
// re-tiers. A key naming no method is ignored.
func (m *Machine) InvalidateCode(fnKey string) {
	m.trace("runtime.deopt")
	st := m.stateOf(fnKey)
	if st == nil {
		return
	}
	st.code = nil
	st.tier, st.tiered = TierInterpreter, true
	// Halve the hotness so the method re-tiers after more profiling.
	st.prof.Invocations /= 2
	st.prof.Backedges /= 2
	st.prof.Deopts++
}

// DeoptCount reports how many times a method was invalidated, letting
// recompilations drop the failing speculation.
func (m *Machine) DeoptCount(fnKey string) int {
	if st := m.stateOf(fnKey); st != nil {
		return st.prof.Deopts
	}
	return 0
}

// Image exposes the loaded image, letting the compiler resolve callees
// for inlining.
func (m *Machine) Image() *bytecode.Image { return m.img }
