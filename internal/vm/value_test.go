package vm

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestValueLayout pins the register-sized representation: three words,
// of which exactly one holds a pointer.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
	typ := reflect.TypeOf(Value{})
	var ptrs []string
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Interface, reflect.Func, reflect.Chan:
			ptrs = append(ptrs, f.Name)
		case reflect.Array, reflect.Struct:
			t.Errorf("field %s is a %s; the pointer check covers scalar fields only", f.Name, f.Type.Kind())
		}
	}
	if len(ptrs) != 1 {
		t.Errorf("pointer-holding fields = %v, want exactly one", ptrs)
	}
}

// TestValueAccessors round-trips every constructor through its accessor
// and checks that accessors for the wrong kind give nil or "".
func TestValueAccessors(t *testing.T) {
	o, b, a := &Object{Class: "T"}, &Object{Class: "Integer", BoxVal: 7}, &Array{Elems: make([]int64, 3)}
	if got := ObjVal(o); got.Kind != KObj || got.Obj() != o || got.Arr() != nil || got.Str() != "" {
		t.Errorf("ObjVal: kind %v obj %p arr %p str %q", got.Kind, got.Obj(), got.Arr(), got.Str())
	}
	if got := BoxVal(b); got.Kind != KBox || got.Obj() != b || got.Arr() != nil || got.String() != "7" {
		t.Errorf("BoxVal: kind %v obj %p arr %p %s", got.Kind, got.Obj(), got.Arr(), got)
	}
	if got := ArrVal(a); got.Kind != KArr || got.Arr() != a || got.Obj() != nil || got.Str() != "" {
		t.Errorf("ArrVal: kind %v arr %p obj %p str %q", got.Kind, got.Arr(), got.Obj(), got.Str())
	}
	for _, s := range []string{"", "T.class", "héllo"} {
		if got := StrVal(s); got.Kind != KStr || got.Str() != s || got.String() != s || got.Obj() != nil || got.Arr() != nil {
			t.Errorf("StrVal(%q): kind %v str %q obj %p arr %p", s, got.Kind, got.Str(), got.Obj(), got.Arr())
		}
	}
	for _, v := range []Value{IntVal(3), LongVal(3), BoolVal(true), NullVal(), {}} {
		if v.Obj() != nil || v.Arr() != nil || v.Str() != "" {
			t.Errorf("%v value: obj %p arr %p str %q, want nil, nil, \"\"", v.Kind, v.Obj(), v.Arr(), v.Str())
		}
	}
	if BoxVal(nil).Obj() != nil || BoxVal(nil).String() != "null" {
		t.Errorf("BoxVal(nil) = %p %s", BoxVal(nil).Obj(), BoxVal(nil))
	}
}

// TestStrValAllocs pins string values as allocation-free: the text is
// referenced in place, never copied or boxed.
func TestStrValAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s, other := "T.class", strings.Clone("T.class")
	var sink Value
	var text string
	var same bool
	if n := testing.AllocsPerRun(100, func() {
		sink = StrVal(s)
		text = sink.Str()
		same = SameRef(sink, StrVal(other))
		text = sink.String()
	}); n != 0 {
		t.Errorf("StrVal/Str/SameRef/String allocate %v times per run, want 0", n)
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
	va, vb := StrVal(a), StrVal(b)
	if !SameRef(va, vb) {
		t.Error("equal texts are not SameRef")
	}
	if SameRef(va, StrVal("other")) {
		t.Error("different texts are SameRef")
	}
	m := NewMachine(compileForBench(t, `class T { static void main() { print(1); } }`), Config{})
	if m.StringMonitor(va.Str()) != m.StringMonitor(vb.Str()) {
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
