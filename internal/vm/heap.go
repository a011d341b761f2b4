package vm

// Object is a heap-allocated class instance. BoxVal holds the wrapped
// int when the object is a java.lang.Integer box.
//
// Instance fields live in slots, indexed like the class's shared
// Layout. A name the layout does not declare behaves as if the object
// held a map: reads give the zero Value, writes land in extra (created
// on first use). Well-typed programs never reach extra, and objects
// without a layout (boxes, class and string monitors) keep only it.
type Object struct {
	Class  string
	Mon    Monitor
	BoxVal int64
	layout *Layout
	slots  []Value
	extra  map[string]Value
	marked bool
}

// Layout is a class's instance-field layout, shared by every object of
// the class: field names in declaration order and the zero value each
// starts with (null for references, else 0).
type Layout struct {
	Names []string
	Zeros []Value
}

// index returns the slot of the named field, or -1 when l (possibly
// nil) does not declare it.
func (l *Layout) index(name string) int {
	if l != nil {
		for i, n := range l.Names {
			if n == name {
				return i
			}
		}
	}
	return -1
}

// Field reads the named instance field.
func (o *Object) Field(name string) Value {
	if i := o.layout.index(name); i >= 0 {
		return o.slots[i]
	}
	return o.extra[name]
}

// SetField writes the named instance field.
func (o *Object) SetField(name string, v Value) {
	if i := o.layout.index(name); i >= 0 {
		o.slots[i] = v
		return
	}
	if o.extra == nil {
		o.extra = map[string]Value{}
	}
	o.extra[name] = v
}

// Array is a heap-allocated int array.
type Array struct {
	Elems  []int64
	Mon    Monitor
	marked bool
}

// Monitor models a (single-threaded) Java monitor: a re-entrant lock
// with an entry depth. An exit on a monitor with zero depth is an
// IllegalMonitorStateException; the fuzzer's oracles watch for leaked
// (still-held) monitors after program exit, the symptom of the inlining
// interaction bug in the paper's Listing 1.
type Monitor struct {
	Depth int
}

// Heap owns all allocations and runs a mark-sweep collector. The GC is a
// genuine substrate component: it traces roots the machine provides, and
// its activity feeds the coverage model's GC component.
type Heap struct {
	objects []*Object
	arrays  []*Array

	AllocCount int   // total allocations
	Units      int64 // cumulative allocation units: objects + boxes + array elements
	GCEvery    int   // allocations between collections (0 = never)
	GCCycles   int   // collections performed
	Freed      int   // cells reclaimed across all cycles
	sinceGC    int
	onGC       func(live, freed int)
}

// NewHeap returns a heap collecting every gcEvery allocations.
func NewHeap(gcEvery int) *Heap {
	return &Heap{GCEvery: gcEvery}
}

// SetGCHook installs a callback invoked after each collection.
func (h *Heap) SetGCHook(fn func(live, freed int)) { h.onGC = fn }

// NewObject allocates an instance of class with its layout's fields
// zeroed. The layout is shared; each object gets its own slots. A nil
// layout declares no fields.
func (h *Heap) NewObject(class string, layout *Layout) *Object {
	o := &Object{Class: class, layout: layout}
	if layout != nil && len(layout.Zeros) > 0 {
		o.slots = append([]Value(nil), layout.Zeros...)
	}
	h.objects = append(h.objects, o)
	h.bump(1)
	return o
}

// NewBox allocates an Integer box.
func (h *Heap) NewBox(v int64) *Object {
	o := &Object{Class: "Integer", BoxVal: int64(int32(v))}
	h.objects = append(h.objects, o)
	h.bump(1)
	return o
}

// NewArray allocates an int array of length n.
func (h *Heap) NewArray(n int64) *Array {
	if n < 0 {
		n = 0
	}
	a := &Array{Elems: make([]int64, n)}
	h.arrays = append(h.arrays, a)
	h.bump(1 + n)
	return a
}

func (h *Heap) bump(units int64) {
	h.AllocCount++
	h.Units += units
	h.sinceGC++
}

// Live returns the number of live heap cells (post any pending GC this is
// exact; between GCs it includes garbage).
func (h *Heap) Live() int { return len(h.objects) + len(h.arrays) }

// NeedsGC reports whether the allocation budget since the last collection
// is exhausted.
func (h *Heap) NeedsGC() bool { return h.GCEvery > 0 && h.sinceGC >= h.GCEvery }

// Collect runs a mark-sweep cycle from the given roots.
func (h *Heap) Collect(roots []Value) (live, freed int) {
	h.sinceGC = 0
	h.GCCycles++
	for _, r := range roots {
		markValue(r)
	}
	// Compact survivors in place, in allocation order, and clear the
	// tail so the backing arrays do not pin dead cells.
	objs := h.objects[:0]
	for _, o := range h.objects {
		if o.marked {
			o.marked = false
			objs = append(objs, o)
		}
	}
	freed += len(h.objects) - len(objs)
	clear(h.objects[len(objs):])
	h.objects = objs
	arrs := h.arrays[:0]
	for _, a := range h.arrays {
		if a.marked {
			a.marked = false
			arrs = append(arrs, a)
		}
	}
	freed += len(h.arrays) - len(arrs)
	clear(h.arrays[len(arrs):])
	h.arrays = arrs
	h.Freed += freed
	live = h.Live()
	if h.onGC != nil {
		h.onGC(live, freed)
	}
	return live, freed
}

func markValue(v Value) {
	switch v.Kind {
	case KObj, KBox:
		markObject(v.Obj())
	case KArr:
		if a := v.Arr(); a != nil {
			a.marked = true
		}
	}
}

func markObject(o *Object) {
	if o == nil || o.marked {
		return
	}
	o.marked = true
	for _, f := range o.slots {
		markValue(f)
	}
	for _, f := range o.extra {
		markValue(f)
	}
}
