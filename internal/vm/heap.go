package vm

// Object is a heap-allocated class instance. BoxVal holds the wrapped
// int when the object is a java.lang.Integer box.
//
// Instance fields live in slots, indexed like the class's shared
// Layout, which also names the class. A name the layout does not
// declare behaves as if the object held a map: reads give the zero
// Value, and the first write gives the object a private copy of its
// layout that holds such fields (Layout.extra). Well-typed programs
// never write one.
//
// The monitor depth and the mark bit share one word, so an Object is
// 24 bytes, the size of one Value. Heap.NewObject allocates it as the
// first Value of a cell of 1+n, the n field slots right behind it, so
// a one-field object is one 48-byte allocation and a box (no slots)
// one of 24. An Object whose layout declares fields must come from
// newObject: the slots are part of its allocation (see value.go).
type Object struct {
	Mon    Monitor
	marked bool
	BoxVal int64
	layout *Layout
}

// Class returns the name of the object's class.
func (o *Object) Class() string { return o.layout.Class }

// Layout is a class's instance-field layout, shared by every object of
// the class: the class name, field names in declaration order and the
// zero value each starts with (null for references, else 0). An object
// has one slot per name.
type Layout struct {
	Class string
	Names []string
	Zeros []Value

	// extra holds one object's fields under names the layout does not
	// declare. Only an object-private copy (SetField makes it) has one;
	// shared layouts keep it nil.
	extra map[string]Value
}

// Shared name-only layouts of boxes and string monitors.
var (
	integerLayout = &Layout{Class: "Integer"}
	stringLayout  = &Layout{Class: "String"}
)

// index returns the slot of the named field, or -1 when l does not
// declare it.
func (l *Layout) index(name string) int {
	for i, n := range l.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// Field reads the named instance field.
func (o *Object) Field(name string) Value {
	if i := o.layout.index(name); i >= 0 {
		return *o.slot(i)
	}
	return o.layout.extra[name]
}

// SetField writes the named instance field.
func (o *Object) SetField(name string, v Value) {
	if i := o.layout.index(name); i >= 0 {
		*o.slot(i) = v
		return
	}
	if o.layout.extra == nil {
		private := *o.layout
		private.extra = map[string]Value{}
		o.layout = &private
	}
	o.layout.extra[name] = v
}

// Array is a heap-allocated int array. Heap.NewArray allocates arrays
// of up to 16 elements as one cell, the elements right behind the
// Array.
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
	Depth int32
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

// NewObject allocates an instance of layout's class with its fields
// zeroed, in one Go allocation. The layout is shared; each object gets
// its own slots.
func (h *Heap) NewObject(layout *Layout) *Object {
	o := newObject(len(layout.Names))
	o.layout = layout
	copy(o.slots(), layout.Zeros)
	h.objects = append(h.objects, o)
	h.bump(1)
	return o
}

// NewBox allocates an Integer box.
func (h *Heap) NewBox(v int64) *Object {
	o := &Object{layout: integerLayout, BoxVal: int64(int32(v))}
	h.objects = append(h.objects, o)
	h.bump(1)
	return o
}

// NewArray allocates an int array of length n.
func (h *Heap) NewArray(n int64) *Array {
	if n < 0 {
		n = 0
	}
	a := newArray(n)
	h.arrays = append(h.arrays, a)
	h.bump(1 + n)
	return a
}

// Arrays of up to 16 elements are allocated as one of these cells, the
// elements right behind the Array; the next larger cell holds a length
// between two sizes.
type (
	arrCell1 struct {
		a Array
		e [1]int64
	}
	arrCell2 struct {
		a Array
		e [2]int64
	}
	arrCell4 struct {
		a Array
		e [4]int64
	}
	arrCell8 struct {
		a Array
		e [8]int64
	}
	arrCell16 struct {
		a Array
		e [16]int64
	}
)

// newArray returns an Array of n zero elements.
func newArray(n int64) *Array {
	switch {
	case n == 0:
		return &Array{Elems: []int64{}}
	case n == 1:
		c := &arrCell1{}
		c.a.Elems = c.e[:n]
		return &c.a
	case n <= 2:
		c := &arrCell2{}
		c.a.Elems = c.e[:n]
		return &c.a
	case n <= 4:
		c := &arrCell4{}
		c.a.Elems = c.e[:n]
		return &c.a
	case n <= 8:
		c := &arrCell8{}
		c.a.Elems = c.e[:n]
		return &c.a
	case n <= 16:
		c := &arrCell16{}
		c.a.Elems = c.e[:n]
		return &c.a
	}
	return &Array{Elems: make([]int64, n)}
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
	for _, f := range o.slots() {
		markValue(f)
	}
	for _, f := range o.layout.extra {
		markValue(f)
	}
}
