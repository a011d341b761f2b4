// Package vm implements the simulated JVM's runtime: tagged values, a
// garbage-collected heap, monitors, the bytecode interpreter tier, method
// profiling, and the tier-up machinery that hands hot methods to a
// pluggable JIT compiler.
package vm

import (
	"fmt"
	"unsafe"
)

// Kind tags a runtime value.
type Kind uint8

// Value kinds.
const (
	KInvalid Kind = iota
	KInt          // 32-bit Java int semantics, stored sign-extended
	KLong
	KBool
	KStr
	KNull
	KObj
	KBox // java.lang.Integer
	KArr // int[]
)

func (k Kind) String() string {
	switch k {
	case KInt:
		return "int"
	case KLong:
		return "long"
	case KBool:
		return "boolean"
	case KStr:
		return "String"
	case KNull:
		return "null"
	case KObj:
		return "object"
	case KBox:
		return "Integer"
	case KArr:
		return "int[]"
	}
	return "invalid"
}

// Value is a runtime value: a kind tag, an integer word and one
// reference word, 24 bytes in all. Go keeps a struct of at most four
// fields and four words in registers, so pushes, pops, slot writes and
// (Value, error) returns never go through memory or a bulk write
// barrier.
//
// I holds the number for KInt, KLong and KBool. ref holds the *Object
// for KObj and KBox and the *Array for KArr; read them through Obj and
// Arr. A KStr value keeps the string's data pointer in ref and its
// length in I; only Str may read either. Because two equal texts may
// have different backing bytes, compare values that might be strings
// with SameRef, never with ==.
type Value struct {
	Kind Kind
	I    int64
	ref  unsafe.Pointer
}

// Constructors.
func IntVal(v int64) Value  { return Value{Kind: KInt, I: int64(int32(v))} }
func LongVal(v int64) Value { return Value{Kind: KLong, I: v} }
func BoolVal(b bool) Value {
	if b {
		return Value{Kind: KBool, I: 1}
	}
	return Value{Kind: KBool, I: 0}
}
func StrVal(s string) Value {
	return Value{Kind: KStr, I: int64(len(s)), ref: unsafe.Pointer(unsafe.StringData(s))}
}
func NullVal() Value         { return Value{Kind: KNull} }
func ObjVal(o *Object) Value { return Value{Kind: KObj, ref: unsafe.Pointer(o)} }
func BoxVal(o *Object) Value { return Value{Kind: KBox, ref: unsafe.Pointer(o)} }
func ArrVal(a *Array) Value  { return Value{Kind: KArr, ref: unsafe.Pointer(a)} }

// Obj returns the object of a KObj or KBox value, else nil.
func (v Value) Obj() *Object {
	if v.Kind == KObj || v.Kind == KBox {
		return (*Object)(v.ref)
	}
	return nil
}

// Arr returns the array of a KArr value, else nil.
func (v Value) Arr() *Array {
	if v.Kind == KArr {
		return (*Array)(v.ref)
	}
	return nil
}

// Str returns the text of a KStr value, else "".
func (v Value) Str() string {
	if v.Kind == KStr {
		return unsafe.String((*byte)(v.ref), int(v.I))
	}
	return ""
}

// Bool reports the truth of a KBool value.
func (v Value) Bool() bool { return v.I != 0 }

// IsRef reports whether v is a reference (possibly null).
func (v Value) IsRef() bool {
	switch v.Kind {
	case KObj, KBox, KArr, KStr, KNull:
		return true
	}
	return false
}

// String renders the value the way the program output channel does.
func (v Value) String() string {
	switch v.Kind {
	case KInt, KLong:
		return fmt.Sprintf("%d", v.I)
	case KBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KStr:
		return v.Str()
	case KNull:
		return "null"
	case KObj:
		return v.Obj().Class() + "@obj"
	case KBox:
		b := v.Obj()
		if b == nil {
			return "null"
		}
		return fmt.Sprintf("%d", b.BoxVal)
	case KArr:
		return fmt.Sprintf("int[%d]", len(v.Arr().Elems))
	}
	return "<invalid>"
}

// SameRef reports whether two reference values denote the same heap cell
// (Java ==). Strings compare by identity of interned instance, which our
// runtime guarantees per distinct literal text, so they compare by text.
func SameRef(a, b Value) bool {
	if a.Kind == KNull || b.Kind == KNull {
		return a.Kind == b.Kind
	}
	switch {
	case a.Kind == KArr && b.Kind == KArr:
		return a.ref == b.ref
	case (a.Kind == KObj || a.Kind == KBox) && (b.Kind == KObj || b.Kind == KBox):
		return a.ref == b.ref
	case a.Kind == KStr && b.Kind == KStr:
		return a.Str() == b.Str()
	}
	return false
}

// An object cell is one Go allocation of 1+n Values: the Object
// header in the first, its n field slots after it. An Object is exactly
// one Value long and keeps its only pointer (the layout) in the word
// where a Value keeps ref, so the collector, scanning the cell as the
// []Value it was allocated as, finds every pointer either holds. The
// arrays below fail to compile if the two shapes drift apart.
var (
	_ [unsafe.Sizeof(Object{}) - unsafe.Sizeof(Value{})]struct{}
	_ [unsafe.Sizeof(Value{}) - unsafe.Sizeof(Object{})]struct{}
	_ [unsafe.Offsetof(Object{}.layout) - unsafe.Offsetof(Value{}.ref)]struct{}
	_ [unsafe.Offsetof(Value{}.ref) - unsafe.Offsetof(Object{}.layout)]struct{}
)

// newObject returns an empty Object with n zero slots behind it.
func newObject(n int) *Object {
	if n == 0 {
		return &Object{}
	}
	cell := make([]Value, 1+n)
	return (*Object)(unsafe.Pointer(&cell[0]))
}

// slot returns o's field slot i. The caller bounds i by the layout
// (Layout.index does); slot itself checks nothing.
func (o *Object) slot(i int) *Value {
	return (*Value)(unsafe.Add(unsafe.Pointer(o), uintptr(1+i)*unsafe.Sizeof(Value{})))
}

// slots returns o's field slots, one per name its layout declares.
func (o *Object) slots() []Value {
	n := len(o.layout.Names)
	if n == 0 {
		return nil
	}
	return unsafe.Slice(o.slot(0), n)
}

// Arith applies Java arithmetic to two numeric values: if either operand
// is long the result is long; otherwise the result wraps to 32 bits.
// Division and remainder by zero return an ArithmeticException.
func Arith(op func(a, b int64) int64, a, b Value) Value {
	r := op(a.I, b.I)
	if a.Kind == KLong || b.Kind == KLong {
		return LongVal(r)
	}
	return IntVal(r)
}
