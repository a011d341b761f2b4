package vm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestValueLayout pins the pointer-free representation: a Value is
// two words, and neither it nor an element of the heap's cell, slot
// and element tables holds a pointer, so the Go collector has nothing
// to scan in them and stores into them pay no write barrier.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 16", got)
	}
	if got := unsafe.Sizeof(cell{}); got != 24 {
		t.Errorf("unsafe.Sizeof(cell{}) = %d, want 24", got)
	}
	var tb tables
	for _, typ := range []reflect.Type{
		reflect.TypeOf(Value{}),
		reflect.TypeOf(tb.cells).Elem(),
		reflect.TypeOf(tb.slots).Elem(),
		reflect.TypeOf(tb.elems).Elem(),
	} {
		if hasPointers(typ) {
			t.Errorf("%s holds a pointer", typ)
		}
	}
}

// TestHeapCellLayout pins how a cell's data sits in the tables: an
// instance's slots and an array's elements are one run each, right
// behind a word holding the cell's handle (reclaim slides the runs and
// finds their owners by it), and a box keeps its value in the header.
// The class name stays in the shared layout, which a slot write never
// reaches.
func TestHeapCellLayout(t *testing.T) {
	h := NewHeap(0)
	defer h.release()
	for n := 0; n <= 20; n++ {
		l := &Layout{Class: "C"}
		for i := 0; i < n; i++ {
			l.Names = append(l.Names, fmt.Sprintf("f%d", i))
			l.Zeros = append(l.Zeros, IntVal(int64(i)))
		}
		id := h.NewObject(h.addLayout(l))
		c := h.cells[id]
		if h.classOf(id) != "C" || int(c.n) != n || c.flags != listed {
			t.Fatalf("%d fields: class %q, %d slots, flags %b", n, h.classOf(id), c.n, c.flags)
		}
		if n > 0 && h.slots[c.at-1] != (Value{I: int64(id)}) {
			t.Errorf("%d fields: the word before the slots is %v, want handle %d", n, h.slots[c.at-1], id)
		}
		for i := 0; i < n; i++ {
			if got := h.Field(id, l.Names[i]); got != IntVal(int64(i)) || h.slots[c.at+int64(i)] != got {
				t.Errorf("%d fields: slot %d = %v, want its zero %d", n, i, got, i)
			}
		}
		if n > 0 {
			h.SetField(id, l.Names[n-1], IntVal(99))
			if l.Zeros[n-1] != IntVal(int64(n-1)) {
				t.Errorf("%d fields: a write reached the shared layout", n)
			}
			if h.Field(id, l.Names[n-1]) != IntVal(99) || (n > 1 && h.Field(id, l.Names[n-2]) != IntVal(int64(n-2))) {
				t.Errorf("%d fields: a write to the last slot did not land there alone", n)
			}
		}
	}
	dirty := make([]int64, 21)
	for i := range dirty {
		dirty[i] = -1
	}
	for n := int64(0); n <= 20; n++ {
		// Dirty the arena past its end: a new array must clear its run.
		h.elems = append(h.elems, dirty...)[:len(h.elems)]
		id := h.NewArray(n)
		c := h.cells[id]
		if c.layout != arrayLayout || int64(c.n) != n || len(h.elemsOf(id)) != int(n) {
			t.Fatalf("array %d: layout %d, length %d, %d elements", n, c.layout, c.n, len(h.elemsOf(id)))
		}
		if n > 0 && h.elems[c.at-1] != int64(id) {
			t.Errorf("array %d: the word before the elements is %d, want handle %d", n, h.elems[c.at-1], id)
		}
		for i, e := range h.elemsOf(id) {
			if e != 0 {
				t.Errorf("array %d: element %d = %d, want 0", n, i, e)
			}
		}
	}
	a, b := h.NewBox(7), h.NewBox(-8)
	if h.classOf(a) != "Integer" || h.cells[a].layout != h.cells[b].layout || h.cells[a].at != 7 || h.cells[b].at != -8 {
		t.Errorf("boxes: classes %q/%q, layouts %d/%d, values %d/%d, want one Integer layout holding 7 and -8",
			h.classOf(a), h.classOf(b), h.cells[a].layout, h.cells[b].layout, h.cells[a].at, h.cells[b].at)
	}
}

// hasPointers reports whether values of type t hold pointers.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
		reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
		return true
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	}
	return false
}

// TestValueAccessors round-trips every kind of reference through its
// cell: an instance, a box and an array render as the output channel
// prints them, and a string's text comes back from its index.
func TestValueAccessors(t *testing.T) {
	m := NewMachine(compileForBench(t, pairSrc), Config{})
	if got := m.NewObject("P"); got.Kind != KObj || m.format(got) != "P@obj" {
		t.Errorf("NewObject: kind %v, %s", got.Kind, m.format(got))
	}
	if got := m.NewBox(-7); got.Kind != KBox || m.format(got) != "-7" {
		t.Errorf("NewBox: kind %v, %s", got.Kind, m.format(got))
	}
	if got := m.NewArray(3); got.Kind != KArr || m.format(got) != "int[3]" || len(m.Heap.elemsOf(got.cell())) != 3 {
		t.Errorf("NewArray: kind %v, %s", got.Kind, m.format(got))
	}
	for _, s := range []string{"", "T.class", "héllo"} {
		if got := m.strVal(s); got.Kind != KStr || m.format(got) != s {
			t.Errorf("strVal(%q): kind %v, %q", s, got.Kind, m.format(got))
		}
	}
	for v, want := range map[Value]string{IntVal(3): "3", LongVal(-3): "-3", BoolVal(true): "true", NullVal(): "null", {}: "<invalid>"} {
		if got := m.format(v); got != want {
			t.Errorf("%v value renders %q, want %q", v.Kind, got, want)
		}
	}
}

// TestStrValAllocs pins string values as allocation-free once their
// text is interned: a value is the text's index, and reading the text
// back, comparing and rendering copy nothing.
func TestStrValAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m := NewMachine(compileForBench(t, pairSrc), Config{})
	s, other := "T.class", strings.Clone("T.class")
	m.strVal(s)
	var sink Value
	var text string
	var same bool
	if n := testing.AllocsPerRun(100, func() {
		sink = m.strVal(s)
		same = SameRef(sink, m.strVal(other))
		text = m.format(sink)
	}); n != 0 {
		t.Errorf("strVal/SameRef/format allocate %v times per run, want 0", n)
	}
	if text != s || !same {
		t.Errorf("text %q same %v", text, same)
	}
}

// TestStringValuesCompareByText pins Java's literal interning: equal
// texts with different backing bytes are the same reference and lock
// the same monitor.
func TestStringValuesCompareByText(t *testing.T) {
	a, b := "T.class", strings.Clone("T.class")
	if unsafe.StringData(a) == unsafe.StringData(b) {
		t.Fatal("strings.Clone shared the backing bytes")
	}
	m := NewMachine(compileForBench(t, `class T { static void main() { print(1); } }`), Config{})
	va, vb := m.strVal(a), m.strVal(b)
	if !SameRef(va, vb) || va != vb {
		t.Error("equal texts are not SameRef")
	}
	if SameRef(va, m.strVal("other")) {
		t.Error("different texts are SameRef")
	}
	if m.monitorOf(va) != m.monitorOf(vb) {
		t.Error("equal texts got different monitors")
	}
	if err := m.MonitorEnter(va); err != nil {
		t.Fatal(err)
	}
	if err := m.MonitorExit(vb); err != nil {
		t.Errorf("exit through the other backing bytes: %v", err)
	}
	if m.HeldMonitors() != 0 {
		t.Errorf("held monitors = %d, want 0", m.HeldMonitors())
	}
}
