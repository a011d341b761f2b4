package vm

import (
	"math"
	"slices"
	"sync"
)

// The heap keeps every class instance, Integer box and int array in
// tables the machine owns. A cell is one header in cells; an
// instance's field slots are a run of slots and an array's elements a
// run of elems, each run right behind a word that names its cell. A
// reference Value holds the cell's index in cells, its handle. No
// table holds a Go pointer, so the Go collector never scans them and
// the interpreter pays no write barrier to store into them, and an
// allocation is an append to tables that are recycled across machines
// (tablePool): in steady state a simulated allocation makes no Go
// allocation at all.
//
// The tables grow by reallocation, and reclaim moves slots and
// elements, so no Go pointer into them (&cells[i], a subslice of
// slots) may be held across an allocation: code holds handles.
type cell struct {
	// at is an instance's first slot in slots, an array's first
	// element in elems, or a box's value.
	at int64
	// n is an instance's slot count or an array's length.
	n int32
	// layout indexes layouts for an instance or a box; an array has
	// arrayLayout.
	layout int32
	depth  int32 // monitor entry depth
	flags  cellFlags
}

type cellFlags uint8

const (
	// listed: on the collector's list of cells, from allocation until
	// a collection (Collect) finds it unmarked. Monitor cells are never
	// listed.
	listed cellFlags = 1 << iota
	// marked: reached by Collect's marking. A collection clears it on
	// the cells it keeps listed; a cell off the list keeps it, and
	// marking stops at it ever after.
	marked
	// reached: reached by reclaim's marking, cleared by its sweep.
	reached
	// freeCell: the handle is on the free list.
	freeCell
)

// arrayLayout is an array cell's layout index.
const arrayLayout = -1

// Layout is a class's instance-field layout, shared by every object of
// the class: the class name, field names in declaration order and the
// zero value each starts with (null for references, else 0). An object
// has one slot per name.
//
// A name the layout does not declare behaves as if the object held a
// map: reads give the zero Value, and the first write gives the object
// a private copy of its layout that holds such fields (extra). Well-
// typed programs never write one.
type Layout struct {
	Class string
	Names []string
	Zeros []Value

	// extra holds one object's fields under names the layout does not
	// declare. Only an object-private copy (SetField makes it) has one;
	// shared layouts keep it nil.
	extra map[string]Value
}

// Shared name-only layouts of boxes and string monitors: every heap's
// layouts table starts with them.
var (
	integerLayout = &Layout{Class: "Integer"}
	stringLayout  = &Layout{Class: "String"}
)

const (
	integerLayoutID int32 = iota
	stringLayoutID
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

// tables is a heap's storage. A heap takes one from tablePool when it
// is made and gives it back when its machine's run ends.
type tables struct {
	cells   []cell
	slots   []Value
	elems   []int64
	free    []int32 // reclaimed handles, reused last-in first-out
	work    []int32 // marking's work list
	layouts []*Layout

	strs    []string         // interned texts, by KStr index
	strIdx  map[string]int32 // text to KStr index
	strMons []int32          // per KStr index, its monitor cell's handle + 1
	classes map[string]int32 // class to shared layout index (Machine.fieldLayout)
	clsMons map[string]int32 // class to its class monitor cell
}

var tablePool = sync.Pool{New: func() any { return &tables{} }}

// Storage a recycled table keeps is capped, so the pool never holds
// on to the biggest tables one run happened to grow.
const (
	keepCells = 1 << 14
	keepSlots = 1 << 15
	keepElems = 1 << 16
	keepMaps  = 1 << 10
)

// keep returns s emptied for reuse, or nil when it is over max long.
func keep[T any](s []T, max int) []T {
	if cap(s) > max {
		return nil
	}
	return s[:0]
}

// keepMap returns m cleared for reuse, or nil when it is over max long.
func keepMap(m map[string]int32) map[string]int32 {
	if len(m) > keepMaps {
		return nil
	}
	clear(m)
	return m
}

// Heap owns all allocations and runs a mark-sweep collector. The GC is a
// genuine substrate component: it traces roots the machine provides, and
// its activity feeds the coverage model's GC component.
//
// It has two views of liveness. Collect is the simulated collector:
// its cadence, its roots (the machine's accounting roots) and its live
// and freed counts are what a run reports and what coverage sees.
// reclaim decides when a handle can be reused: it runs with every
// collection and whenever the tables outgrow their goal, from a wider
// root set that covers every place the machine keeps a reference
// (Machine.reclaim), and never changes what Collect counts.
type Heap struct {
	tables
	pooled *tables // the tablePool entry the storage came from

	AllocCount int   // total allocations
	Units      int64 // cumulative allocation units: objects + boxes + array elements
	GCEvery    int   // allocations between collections (0 = never)
	GCCycles   int   // collections performed
	Freed      int   // cells reclaimed across all cycles
	sinceGC    int
	onGC       func(live, freed int)

	live     int // listed cells
	unlisted int // listed cells reclaim freed before a collection swept them
	goal     int // table words past which an allocation reclaims
}

// minGoal is the smallest reclaim goal, in 8-byte table words.
const minGoal = 1 << 17

// NewHeap returns a heap collecting every gcEvery allocations.
func NewHeap(gcEvery int) *Heap {
	t := tablePool.Get().(*tables)
	h := &Heap{tables: *t, pooled: t, GCEvery: gcEvery, goal: minGoal}
	h.layouts = append(h.layouts, integerLayout, stringLayout)
	return h
}

// release hands the heap's storage back to tablePool when the run
// ends. Its counters stay readable; its cells are gone.
func (h *Heap) release() {
	t := h.pooled
	if t == nil {
		return
	}
	clear(h.layouts)
	clear(h.strs)
	*t = tables{
		cells:   keep(h.cells, keepCells),
		slots:   keep(h.slots, keepSlots),
		elems:   keep(h.elems, keepElems),
		free:    keep(h.free, keepCells),
		work:    keep(h.work, keepCells),
		layouts: keep(h.layouts, keepMaps),
		strs:    keep(h.strs, keepMaps),
		strIdx:  keepMap(h.strIdx),
		strMons: keep(h.strMons, keepMaps),
		classes: keepMap(h.classes),
		clsMons: keepMap(h.clsMons),
	}
	h.tables, h.pooled = tables{}, nil
	tablePool.Put(t)
}

// SetGCHook installs a callback invoked after each collection.
func (h *Heap) SetGCHook(fn func(live, freed int)) { h.onGC = fn }

// addLayout appends l to the layouts table and returns its index.
func (h *Heap) addLayout(l *Layout) int32 {
	h.layouts = append(h.layouts, l)
	return int32(len(h.layouts) - 1)
}

// newCell stores c under a free handle and returns the handle.
func (h *Heap) newCell(c cell) int32 {
	if k := len(h.free); k > 0 {
		id := h.free[k-1]
		h.free = h.free[:k-1]
		h.cells[id] = c
		return id
	}
	h.cells = append(h.cells, c)
	return int32(len(h.cells) - 1)
}

// NewObject allocates an instance with the layout of the given index,
// its fields zeroed. The layout is shared; each object gets its own
// slots.
func (h *Heap) NewObject(layout int32) int32 {
	zeros := h.layouts[layout].Zeros
	id := h.newCell(cell{layout: layout, n: int32(len(zeros)), flags: listed})
	if len(zeros) > 0 {
		at := len(h.slots)
		h.slots = append(append(h.slots, Value{I: int64(id)}), zeros...)
		h.cells[id].at = int64(at + 1)
	}
	h.bump(1)
	return id
}

// NewBox allocates an Integer box.
func (h *Heap) NewBox(v int64) int32 {
	id := h.newCell(cell{at: int64(int32(v)), layout: integerLayoutID, flags: listed})
	h.bump(1)
	return id
}

// NewArray allocates an int array of length n, at most MaxInt32 (a
// Java array length is an int).
func (h *Heap) NewArray(n int64) int32 {
	n = min(max(n, 0), math.MaxInt32)
	id := h.newCell(cell{n: int32(n), layout: arrayLayout, flags: listed})
	if n > 0 {
		at := len(h.elems)
		h.elems = slices.Grow(h.elems, int(n)+1)[:at+1+int(n)]
		h.elems[at] = int64(id)
		clear(h.elems[at+1:])
		h.cells[id].at = int64(at + 1)
	}
	h.bump(1 + n)
	return id
}

// monitorCell allocates a cell that exists only for its monitor (a
// string's or a class's). It is never listed, so no collection counts
// it.
func (h *Heap) monitorCell(layout int32) int32 {
	return h.newCell(cell{layout: layout})
}

func (h *Heap) bump(units int64) {
	h.AllocCount++
	h.Units += units
	h.sinceGC++
	h.live++
}

// classOf returns the class name of instance or box id.
func (h *Heap) classOf(id int32) string { return h.layouts[h.cells[id].layout].Class }

// Field reads the named instance field of object id.
func (h *Heap) Field(id int32, name string) Value {
	c := &h.cells[id]
	l := h.layouts[c.layout]
	if i := l.index(name); i >= 0 {
		return h.slots[c.at+int64(i)]
	}
	return l.extra[name]
}

// SetField writes the named instance field of object id.
func (h *Heap) SetField(id int32, name string, v Value) {
	c := &h.cells[id]
	l := h.layouts[c.layout]
	if i := l.index(name); i >= 0 {
		h.slots[c.at+int64(i)] = v
		return
	}
	if l.extra == nil {
		private := *l
		private.extra = map[string]Value{}
		l = &private
		c.layout = h.addLayout(l)
	}
	l.extra[name] = v
}

// elemsOf returns array id's elements. The slice is valid until the
// next allocation.
func (h *Heap) elemsOf(id int32) []int64 {
	c := &h.cells[id]
	return h.elems[c.at : c.at+int64(c.n)]
}

// intern returns the KStr index of text s.
func (h *Heap) intern(s string) int32 {
	if i, ok := h.strIdx[s]; ok {
		return i
	}
	if h.strIdx == nil {
		h.strIdx = map[string]int32{}
	}
	i := int32(len(h.strs))
	h.strs = append(h.strs, s)
	h.strMons = append(h.strMons, 0)
	h.strIdx[s] = i
	return i
}

// NeedsGC reports whether the allocation budget since the last collection
// is exhausted.
func (h *Heap) NeedsGC() bool { return h.GCEvery > 0 && h.sinceGC >= h.GCEvery }

// Collect runs a mark-sweep cycle from the given roots: it marks what
// they reach and drops each unmarked cell from the list, and reports
// the cells still listed and those it dropped.
func (h *Heap) Collect(roots []Value) (live, freed int) {
	h.sinceGC = 0
	h.GCCycles++
	h.mark(roots, marked, false)
	for i := range h.cells {
		c := &h.cells[i]
		if c.flags&listed == 0 {
			continue
		}
		if c.flags&marked != 0 {
			c.flags &^= marked
		} else {
			c.flags &^= listed
			freed++
		}
	}
	freed += h.unlisted
	h.unlisted = 0
	h.live -= freed
	h.Freed += freed
	live = h.live
	if h.onGC != nil {
		h.onGC(live, freed)
	}
	return live, freed
}

// mark sets bit on every cell roots reach and, with held, on every
// cell whose monitor is held and what those reach. A cell that has the
// bit already is not traced again.
func (h *Heap) mark(roots []Value, bit cellFlags, held bool) {
	work := h.work[:0]
	for _, r := range roots {
		work = h.markValue(work, r, bit)
	}
	if held {
		for i := range h.cells {
			if c := &h.cells[i]; c.depth > 0 {
				k := KObj
				if c.layout == arrayLayout {
					k = KArr
				}
				work = h.markValue(work, refVal(k, int32(i)), bit)
			}
		}
	}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		c := h.cells[id]
		if c.n > 0 {
			for _, v := range h.slots[c.at : c.at+int64(c.n)] {
				work = h.markValue(work, v, bit)
			}
		}
		for _, v := range h.layouts[c.layout].extra {
			work = h.markValue(work, v, bit)
		}
	}
	h.work = work
}

// markValue sets bit on v's cell, if v names one that lacks it, and
// queues an instance or box to have its fields traced.
func (h *Heap) markValue(work []int32, v Value, bit cellFlags) []int32 {
	switch v.Kind {
	case KObj, KBox, KArr:
		c := &h.cells[v.I]
		if c.flags&bit != 0 {
			return work
		}
		c.flags |= bit
		if v.Kind != KArr {
			work = append(work, v.cell())
		}
	}
	return work
}

// reclaim frees the handle of every cell roots do not reach, nor a
// cell whose monitor is held, and slides the slots and elements of the
// cells it keeps down over the freed ones. A listed cell it frees is
// counted by the next collection, as that collection would have found
// it unmarked. The next goal is twice the words kept.
func (h *Heap) reclaim(roots []Value) {
	h.mark(roots, reached, true)
	h.slots = slide(h, h.slots, func(v Value) int64 { return v.I })
	h.elems = slide(h, h.elems, func(e int64) int64 { return e })

	for i := range h.cells {
		c := &h.cells[i]
		switch {
		case c.flags&freeCell != 0:
		case c.flags&reached != 0:
			c.flags &^= reached
		default:
			if c.flags&listed != 0 {
				h.unlisted++
			}
			*c = cell{flags: freeCell}
			h.free = append(h.free, int32(i))
		}
	}
	h.goal = max(2*h.words(), minGoal)
}

// slide moves the runs of arena that belong to reached cells down over
// the others, keeping their order, and points each moved cell at its
// run's new place. owner reads the handle in a run's first word.
func slide[T any](h *Heap, arena []T, owner func(T) int64) []T {
	q := 0
	for p := 0; p < len(arena); {
		c := &h.cells[owner(arena[p])]
		end := p + 1 + int(c.n)
		if c.flags&reached != 0 {
			if q != p {
				copy(arena[q:], arena[p:end])
				c.at = int64(q + 1)
			}
			q += end - p
		}
		p = end
	}
	return arena[:q]
}

// words returns the size of the cells in use, their slots and their
// elements, in 8-byte words.
func (h *Heap) words() int {
	return 3*(len(h.cells)-len(h.free)) + 2*len(h.slots) + len(h.elems)
}

// overGoal reports whether the tables have grown past the goal the
// last reclaim set.
func (h *Heap) overGoal() bool { return h.words() > h.goal }
