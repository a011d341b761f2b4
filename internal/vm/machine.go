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
// Run once, inspect the Result. It runs compiled code too: the
// bytecode a JIT tier emits, on the same interpreter loop (RunCompiled).
type Machine struct {
	img     *bytecode.Image
	cfg     Config
	Heap    *Heap
	heapCap int64 // MaxHeapUnits, or MaxInt64 when uncapped

	statics []Value // one slot per Image.Statics entry

	output []string
	steps  int64
	// limit is the step count past which Step fails: MaxSteps, lowered
	// to the current step count once the heap cap is crossed.
	limit int64

	fns []fnState // per-function runtime state, indexed by Function.ID

	heldMonitors int
	frames       []*frame // interpreted frames, the collector's roots
	compiled     []*frame // compiled frames, roots for reclaim only
	free         []*frame // ended frames, for reuse (newFrame)
	// compiledProf absorbs the backedges of compiled frames, which
	// feed no method's profile.
	compiledProf MethodProfile

	argBufs  [][]Value // LIFO freelist of call-argument buffers
	rootsBuf []Value   // reused GC root scratch
}

// fnState is one function's runtime state. The interpreter reaches it
// through Function.ID; the JIT and tests name the function by key.
type fnState struct {
	prof   MethodProfile
	code   CompiledMethod // nil while the function runs interpreted
	tier   Tier
	tiered bool // tier was set at least once, so Result.Tiers lists it
	noJIT  bool // no JIT, or CompileOnly names another method
}

type frame struct {
	fn     *bytecode.Function
	locals []Value
	stack  []Value // MaxStack slots
	sp     int     // the live stack[:sp], stored before each allocation or call
	mons   []monEntry
	// traps is the JIT runtime of a compiled frame, which runs code a
	// JIT tier emitted (RunCompiled); nil for an interpreted frame.
	traps Traps
}

// framePool recycles frames across machines: campaign workers each
// run millions of calls, and a frame plus its locals slice used to be
// two heap allocations per call. Within a run, frames are strictly
// LIFO, so a machine keeps the frames its calls returned in free and
// reuses them first; Run hands them back to the pool when it ends. A
// frame returned in interpret's epilogue is never referenced again:
// m.frames has already popped it and GC root scans only walk live
// frames.
var framePool = sync.Pool{New: func() any { return &frame{} }}

// newFrame returns a frame with locals and stack sized for fn. Its
// locals are zero, since popFrame clears every local a frame used; its
// stack may hold stale values, which are never read (a slot is written
// before it is read, and the collector scans only stack[:sp]). The
// monitor slice keeps its capacity, length zero.
func (m *Machine) newFrame(fn *bytecode.Function) *frame {
	var f *frame
	if k := len(m.free); k > 0 {
		f = m.free[k-1]
		m.free = m.free[:k-1]
	} else {
		f = framePool.Get().(*frame)
	}
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
	return f
}

// releaseFrames returns the machine's kept frames to framePool.
func (m *Machine) releaseFrames() {
	for _, f := range m.free {
		framePool.Put(f)
	}
	m.free = nil
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
// (interpreted and compiled frames alike copy them into their locals
// and keep no reference to the slice). It is not cleared: whoever gets
// it next overwrites what it reads, and the collector never scans it.
func (m *Machine) putArgs(buf []Value) {
	m.argBufs = append(m.argBufs, buf)
}

type monEntry struct {
	cell int32 // the monitor's cell (monitorOf(v))
	v    Value
	// leak marks a region of compiled code whose exception path keeps
	// the monitor (a seeded defect): a throw routed out of the region
	// drops the entry without releasing it.
	leak bool
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
	for i, fn := range img.Functions() {
		m.fns[i].noJIT = cfg.JIT == nil || cfg.CompileOnly != "" && fn.Key() != cfg.CompileOnly
	}
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
	m.releaseFrames()
	m.Heap.release()
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
			syncVal = refVal(KObj, m.classMonitor(fn.Class))
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
		ret, err = m.interpret(fn, &st.prof, args, nil)
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
	if st.noJIT || st.tier == TierC2 { // C2 is the top tier
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

// classMonitor returns the cell whose monitor a static synchronized
// method of class locks.
func (m *Machine) classMonitor(class string) int32 {
	h := m.Heap
	id, ok := h.clsMons[class]
	if !ok {
		if h.clsMons == nil {
			h.clsMons = map[string]int32{}
		}
		id = h.monitorCell(h.addLayout(&Layout{Class: class + "$Class"}))
		h.clsMons[class] = id
	}
	return id
}

// --- Runtime services for the interpreter loop and the JIT ---

// NewObject allocates a class instance with zeroed fields.
func (m *Machine) NewObject(class string) Value {
	v := refVal(KObj, m.Heap.NewObject(m.fieldLayout(class)))
	m.trace("runtime.objects")
	m.trace("gc.alloc.fast")
	m.allocated(v)
	return v
}

// fieldLayout returns class's instance-field layout, built from the
// class file on the class's first allocation and reused after that.
// Unknown classes get a name-only layout. A name declared twice gets
// one slot whose zero is the last declaration's, as if each object's
// fields were a map filled in declaration order.
func (m *Machine) fieldLayout(class string) int32 {
	h := m.Heap
	if id, ok := h.classes[class]; ok {
		return id
	}
	if h.classes == nil {
		h.classes = map[string]int32{}
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
	id := h.addLayout(l)
	h.classes[class] = id
	return id
}

// NewBox allocates an Integer box.
func (m *Machine) NewBox(v int64) Value {
	b := refVal(KBox, m.Heap.NewBox(v))
	m.trace("runtime.boxing")
	m.trace("gc.alloc.fast")
	m.allocated(b)
	return b
}

// NewArray allocates an int array.
func (m *Machine) NewArray(n int64) Value {
	a := refVal(KArr, m.Heap.NewArray(n))
	m.trace("runtime.arrays")
	m.trace("gc.alloc.fast")
	if n > 1000 {
		m.trace("gc.large")
	}
	m.allocated(a)
	return a
}

// allocated does the bookkeeping every allocation owes; v is the new
// cell. Allocation sites have no error channel, so crossing the heap
// cap lowers the step limit to the current step count: the next step
// fails, from interpreted and compiled code alike. Then a collection
// runs if one is due, and reclaim with it, or reclaim alone if the
// heap's tables have outgrown their goal.
func (m *Machine) allocated(v Value) {
	if m.Heap.Units > m.heapCap {
		m.limit = min(m.limit, m.steps)
	}
	if m.Heap.NeedsGC() {
		m.trace("gc.alloc.slow")
		m.trace("gc.mark")
		m.trace("gc.sweep")
		m.trace("gc.roots.statics")
		if len(m.frames) > 0 {
			m.trace("gc.roots.frames")
		}
		roots := m.roots()
		m.Heap.Collect(roots)
		m.reclaim(roots, v)
	} else if m.Heap.overGoal() {
		m.reclaim(m.roots(), v)
	}
}

// roots returns the collector's roots: the statics, each interpreted
// frame's locals, operand stack and monitor operands, and the string
// monitors.
func (m *Machine) roots() []Value {
	roots := append(m.rootsBuf[:0], m.statics...)
	for _, f := range m.frames {
		roots = appendFrame(roots, f)
	}
	for _, id := range m.Heap.strMons {
		if id != 0 {
			roots = append(roots, refVal(KObj, id-1))
		}
	}
	m.rootsBuf = roots
	return roots
}

// appendFrame appends f's roots: its locals, its live operand stack
// and the operands of the monitors it holds.
func appendFrame(roots []Value, f *frame) []Value {
	roots = append(roots, f.locals...)
	roots = append(roots, f.stack[:f.sp]...)
	for _, me := range f.mons {
		roots = append(roots, me.v)
	}
	return roots
}

// reclaim frees every cell the machine can no longer reach. Its roots
// are the collector's (roots) and what else the machine holds a
// reference in: compiled frames, the class monitors, fresh (the cell
// whose allocation started this, which no frame holds yet) and, added
// by Heap.reclaim, every cell whose monitor is held, such as the
// receiver of a running synchronized method.
func (m *Machine) reclaim(roots []Value, fresh Value) {
	for _, f := range m.compiled {
		roots = appendFrame(roots, f)
	}
	for _, id := range m.Heap.clsMons {
		roots = append(roots, refVal(KObj, id))
	}
	roots = append(roots, fresh)
	m.Heap.reclaim(roots)
	m.rootsBuf = roots
}

// strVal returns the KStr value of text s.
func (m *Machine) strVal(s string) Value {
	return Value{Kind: KStr, I: int64(m.Heap.intern(s))}
}

// stringMonitor returns the cell of the shared lock object of the
// string with KStr index i.
func (m *Machine) stringMonitor(i int64) int32 {
	h := m.Heap
	if id := h.strMons[i]; id != 0 {
		return id - 1
	}
	id := h.monitorCell(stringLayoutID)
	h.strMons[i] = id + 1
	return id
}

// MonitorEnter enters the monitor of a reference value; CallFunction
// enters a synchronized method's monitor with it. Enter and Exit return
// ErrIllegalMonitor on imbalance.
func (m *Machine) MonitorEnter(v Value) error {
	id := m.monitorOf(v)
	if id < 0 {
		return &Thrown{Code: bytecode.ExcNullPointer}
	}
	m.enter(id)
	return nil
}

// enter takes the monitor of cell id once more.
func (m *Machine) enter(id int32) {
	m.trace("runtime.monitors")
	c := &m.Heap.cells[id]
	if c.depth > 0 {
		m.trace("runtime.monitors.nested")
	}
	c.depth++
	m.heldMonitors++
}

// MonitorExit exits the monitor of a reference value.
func (m *Machine) MonitorExit(v Value) error {
	id := m.monitorOf(v)
	if id < 0 {
		return &Thrown{Code: bytecode.ExcNullPointer}
	}
	c := &m.Heap.cells[id]
	if c.depth == 0 {
		return ErrIllegalMonitor
	}
	c.depth--
	m.heldMonitors--
	return nil
}

// monitorOf returns the cell whose monitor v locks, or -1 when v is no
// reference to one.
func (m *Machine) monitorOf(v Value) int32 {
	switch v.Kind {
	case KObj, KBox, KArr:
		return v.cell()
	case KStr:
		return m.stringMonitor(v.I)
	}
	return -1
}

// HeldMonitors reports the number of currently held monitor entries.
func (m *Machine) HeldMonitors() int { return m.heldMonitors }

// Print appends a value to the program output channel.
func (m *Machine) Print(v Value) {
	m.output = append(m.output, m.format(v))
}

// Step consumes one unit of fuel; it returns ErrTimeout when the budget
// is gone. It is also where the heap-allocation cap surfaces: the
// allocation that crosses the cap lowers the step limit (allocated), so
// the first step after it fails with ErrHeapExhausted. The interpreter
// takes an instruction's weight in steps (one, except in emitted code),
// or a block's at once when it fits (interpret). Step is one compare,
// small enough to inline into every caller; stepFail sorts out which
// limit was crossed.
func (m *Machine) Step() error {
	m.steps++
	if m.steps > m.limit {
		return m.stepFail()
	}
	return nil
}

// stepAt takes the fuel of fn's instruction at pc, one step at a time,
// so a budget runs out on the same step as it would have unbatched.
func (m *Machine) stepAt(fn *bytecode.Function, pc int32) error {
	w := uint16(1)
	if fn.Weights != nil {
		w = fn.Weights[pc]
	}
	for ; w > 0; w-- {
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// RunCompiled runs code, a method a JIT tier emitted as bytecode and
// linked into this machine's image, as a compiled frame. args holds the
// receiver (for instance methods) followed by the parameters; traps
// takes the code's uncommon traps. A compiled frame runs on the same
// loop as an interpreted one, but it is no GC root, feeds no profile's
// backedges, marks no exception or write-barrier coverage, and releases
// the monitors it holds when an error that is not an exception ends it.
func (m *Machine) RunCompiled(code *bytecode.Function, args []Value, traps Traps) (Value, error) {
	return m.interpret(code, &m.compiledProf, args, traps)
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
