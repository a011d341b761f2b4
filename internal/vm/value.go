// Package vm implements the simulated JVM's runtime: tagged values, a
// garbage-collected heap, monitors, the bytecode interpreter tier, method
// profiling, and the tier-up machinery that hands hot methods to a
// pluggable JIT compiler.
package vm

import "strconv"

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

// Value is a runtime value: a kind tag and one integer word, 16 bytes
// and no pointer. Go keeps it in registers, and since the collector
// has nothing to trace in it, pushes, pops, local stores and slot
// writes pay no write barrier.
//
// I holds the number for KInt, KLong and KBool. For KObj, KBox and
// KArr it holds the handle of a cell in the machine's heap tables
// (heap.go); for KStr, the index of the text in the machine's string
// table, which interns by text, so two values of the same text have
// the same index. A value with a handle or an index means something
// only on the machine that made it.
type Value struct {
	Kind Kind
	I    int64
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
func NullVal() Value { return Value{Kind: KNull} }

// refVal returns a reference of kind k to heap cell h.
func refVal(k Kind, h int32) Value { return Value{Kind: k, I: int64(h)} }

// cell returns the heap cell handle of a KObj, KBox or KArr value.
func (v Value) cell() int32 { return int32(v.I) }

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

// format renders v the way the program output channel does. A cell's
// rendering reads the cell, so it takes the machine that made v.
func (m *Machine) format(v Value) string {
	switch v.Kind {
	case KInt, KLong:
		return strconv.FormatInt(v.I, 10)
	case KBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KStr:
		return m.Heap.strs[v.I]
	case KNull:
		return "null"
	case KObj:
		return m.Heap.classOf(v.cell()) + "@obj"
	case KBox:
		return strconv.FormatInt(m.Heap.cells[v.I].at, 10)
	case KArr:
		return "int[" + strconv.Itoa(int(m.Heap.cells[v.I].n)) + "]"
	}
	return "<invalid>"
}

// SameRef reports whether two reference values denote the same heap cell
// (Java ==). Strings are interned by text, so two strings are the same
// reference exactly when their texts are equal: the same table index.
func SameRef(a, b Value) bool {
	if a.Kind == KNull || b.Kind == KNull {
		return a.Kind == b.Kind
	}
	switch {
	case a.Kind == KArr && b.Kind == KArr, a.Kind == KStr && b.Kind == KStr:
		return a.I == b.I
	case (a.Kind == KObj || a.Kind == KBox) && (b.Kind == KObj || b.Kind == KBox):
		return a.I == b.I
	}
	return false
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
