package vm

// Object is a heap-allocated class instance. BoxVal holds the wrapped
// int when the object is a java.lang.Integer box.
type Object struct {
	Class  string
	Fields map[string]Value
	Mon    Monitor
	BoxVal int64
	marked bool
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

// FieldInit is one instance field of a class layout: its name and the
// zero value a new object starts with (null for references, else 0).
type FieldInit struct {
	Name string
	Zero Value
}

// NewObject allocates an instance of class with its layout's fields
// zeroed. The layout is shared; each object gets its own Fields map.
func (h *Heap) NewObject(class string, layout []FieldInit) *Object {
	o := &Object{Class: class, Fields: make(map[string]Value, len(layout))}
	for _, f := range layout {
		o.Fields[f.Name] = f.Zero
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
		markObject(v.Obj)
	case KArr:
		if v.Arr != nil {
			v.Arr.marked = true
		}
	}
}

func markObject(o *Object) {
	if o == nil || o.marked {
		return
	}
	o.marked = true
	for _, f := range o.Fields {
		markValue(f)
	}
}
