package vm

import (
	"errors"
	"fmt"
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
// Run once, inspect the Result.
type Machine struct {
	img  *bytecode.Image
	cfg  Config
	Heap *Heap

	statics   map[staticKey]Value
	strMons   map[string]*Object
	classMons map[string]*Object

	output []string
	steps  int64

	profiles map[string]*MethodProfile
	compiled map[string]CompiledMethod
	tiers    map[string]Tier
	deopts   map[string]int

	heldMonitors int
	frames       []*frame

	argBufs  [][]Value // LIFO freelist of call-argument buffers
	rootsBuf []Value   // reused GC root scratch

	layouts map[string]*Layout // per-class instance fields (fieldLayout)
}

// staticKey names a static field. Statics are only ever looked up by
// key or walked as GC roots, so map order never reaches a result.
type staticKey struct{ class, field string }

type frame struct {
	fn     *bytecode.Function
	locals []Value
	stack  []Value
	mons   []monEntry
}

// framePool recycles interpreter frames across calls (and across
// machines — campaign workers each run millions of calls, and a frame
// plus its locals slice used to be two heap allocations per call).
// Frames are strictly LIFO per machine, so a frame returned in
// interpret's epilogue is never referenced again: m.frames has already
// popped it and GC root scans only walk live frames.
var framePool = sync.Pool{New: func() any { return &frame{} }}

// newFrame returns a cleared frame with locals sized for fn. Reused
// locals are zeroed up to NLocals (the old make([]Value, n) semantics);
// the stack and monitor slices keep their capacity, length zero.
func newFrame(fn *bytecode.Function) *frame {
	f := framePool.Get().(*frame)
	f.fn = fn
	if cap(f.locals) < fn.NLocals {
		f.locals = make([]Value, fn.NLocals)
	} else {
		f.locals = f.locals[:fn.NLocals]
		clear(f.locals)
	}
	f.stack = f.stack[:0]
	f.mons = f.mons[:0]
	return f
}

// freeFrame returns a frame to the pool. Slices are kept for capacity
// reuse but their contents cleared so the pool does not pin dead heap
// objects between runs.
func freeFrame(f *frame) {
	f.fn = nil
	clear(f.locals)
	clear(f.stack[:cap(f.stack)])
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
// stack — neither retains the slice).
func (m *Machine) putArgs(buf []Value) {
	clear(buf[:cap(buf)])
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
		img:       img,
		cfg:       cfg,
		Heap:      NewHeap(cfg.GCEvery),
		statics:   map[staticKey]Value{},
		strMons:   map[string]*Object{},
		classMons: map[string]*Object{},
		profiles:  map[string]*MethodProfile{},
		compiled:  map[string]CompiledMethod{},
		tiers:     map[string]Tier{},
		deopts:    map[string]int{},
		layouts:   map[string]*Layout{},
	}
	m.Heap.SetGCHook(cfg.OnGC)
	for _, c := range img.Classes {
		for _, f := range c.Fields {
			if f.Static {
				if f.IsRef {
					m.statics[staticKey{c.Name, f.Name}] = NullVal()
				} else {
					m.statics[staticKey{c.Name, f.Name}] = IntVal(0)
				}
			}
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
		Tiers:        m.tiers,
	}
	for _, d := range m.deopts {
		res.Deopts += d
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

// Profile returns the profile for a method key, creating it on demand.
func (m *Machine) Profile(key string) *MethodProfile {
	p := m.profiles[key]
	if p == nil {
		p = &MethodProfile{}
		m.profiles[key] = p
	}
	return p
}

// CallFunction invokes fn through the tiering machinery. args holds the
// receiver (for instance methods) followed by the parameters.
func (m *Machine) CallFunction(fn *bytecode.Function, args []Value) (Value, error) {
	key := fn.Key()
	prof := m.Profile(key)
	prof.Invocations++
	m.trace("runtime.interp.calls")
	if err := m.tierUp(fn, prof); err != nil {
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
	if cm := m.compiled[key]; cm != nil {
		ret, err = cm.Invoke(args)
	} else {
		ret, err = m.interpret(fn, args)
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

func (m *Machine) tierUp(fn *bytecode.Function, prof *MethodProfile) error {
	if m.cfg.JIT == nil {
		return nil
	}
	key := fn.Key()
	if m.cfg.CompileOnly != "" && key != m.cfg.CompileOnly {
		return nil
	}
	cur := m.tiers[key]
	hot := prof.Hotness()
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
		m.tiers[key] = want
		return nil
	}
	m.compiled[key] = cm
	m.tiers[key] = want
	if m.cfg.OnCompile != nil {
		m.cfg.OnCompile(fn, want)
	}
	return nil
}

func (m *Machine) classMonitor(class string) *Object {
	o := m.classMons[class]
	if o == nil {
		o = &Object{Class: class + "$Class"}
		m.classMons[class] = o
	}
	return o
}

// --- Env implementation (services for compiled code and the JIT) ---

// NewObject allocates a class instance with zeroed fields.
func (m *Machine) NewObject(class string) Value {
	v := ObjVal(m.Heap.NewObject(class, m.fieldLayout(class)))
	m.trace("runtime.objects")
	m.trace("gc.alloc.fast")
	m.maybeGC()
	return v
}

// fieldLayout returns class's instance-field layout, built from the
// class file on the class's first allocation and reused after that.
// Unknown classes get an empty layout. A name declared twice gets one
// slot whose zero is the last declaration's, as if each object's
// fields were a map filled in declaration order.
func (m *Machine) fieldLayout(class string) *Layout {
	if l, ok := m.layouts[class]; ok {
		return l
	}
	l := &Layout{}
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
	m.maybeGC()
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
	m.maybeGC()
	return a
}

func (m *Machine) maybeGC() {
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
	roots := m.rootsBuf[:0]
	for _, v := range m.statics {
		roots = append(roots, v)
	}
	for _, f := range m.frames {
		roots = append(roots, f.locals...)
		roots = append(roots, f.stack...)
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

// GetStatic reads a static field.
func (m *Machine) GetStatic(class, field string) Value {
	m.trace("runtime.statics")
	return m.statics[staticKey{class, field}]
}

// SetStatic writes a static field.
func (m *Machine) SetStatic(class, field string, v Value) {
	m.statics[staticKey{class, field}] = v
}

// StringMonitor interns the shared lock object for a string literal.
func (m *Machine) StringMonitor(s string) *Object {
	o := m.strMons[s]
	if o == nil {
		o = &Object{Class: "String"}
		m.strMons[s] = o
	}
	return o
}

// Call dispatches a method reference through tiering.
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

// MonitorEnter enters the monitor of a reference value.
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

// Step consumes one unit of fuel. It is also where the heap-allocation
// cap surfaces: allocation sites have no error channel, so the budget
// check rides the per-instruction fuel check instead (the interpreter
// and compiled code both step every instruction, bounding the delay to
// one instruction after the blown allocation).
func (m *Machine) Step() error {
	m.steps++
	if m.steps > m.cfg.MaxSteps {
		return ErrTimeout
	}
	if m.cfg.MaxHeapUnits > 0 && m.Heap.Units > m.cfg.MaxHeapUnits {
		return ErrHeapExhausted
	}
	return nil
}

// InvalidateCode deopts a method back to the interpreter.
func (m *Machine) InvalidateCode(fnKey string) {
	m.trace("runtime.deopt")
	delete(m.compiled, fnKey)
	m.tiers[fnKey] = TierInterpreter
	m.deopts[fnKey]++
	// Halve the hotness so the method re-tiers after more profiling.
	if p := m.profiles[fnKey]; p != nil {
		p.Invocations /= 2
		p.Backedges /= 2
		p.Deopts++
	}
}

// DeoptCount reports how many times a method was invalidated.
func (m *Machine) DeoptCount(fnKey string) int { return m.deopts[fnKey] }

// Image exposes the loaded image.
func (m *Machine) Image() *bytecode.Image { return m.img }

var _ Env = (*Machine)(nil)
