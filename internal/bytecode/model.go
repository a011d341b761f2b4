package bytecode

import (
	"fmt"

	"repro/internal/lang"
)

// MethodRef names a callable method in the image.
type MethodRef struct {
	Class  string
	Method string
	Static bool
	NArgs  int  // declared parameters (excluding receiver)
	Void   bool // true when the method returns void
}

func (r MethodRef) String() string {
	kind := "virtual"
	if r.Static {
		kind = "static"
	}
	return fmt.Sprintf("%s %s.%s/%d", kind, r.Class, r.Method, r.NArgs)
}

// FieldRef names a field in the image.
type FieldRef struct {
	Class  string
	Name   string
	Static bool
	// Slot is a static field's index in Image.Statics, filled by
	// Compile; -1 for instance fields.
	Slot int32
}

func (r FieldRef) String() string { return r.Class + "." + r.Name }

// ExRange is one exception-table entry: if an exception unwinds while
// pc is in [Start, End), control transfers to Handler with the thrown
// code stored into local CatchSlot. MonDepth records the frame monitor
// depth at try entry so the runtime can release monitors entered inside
// the protected range before running the handler.
type ExRange struct {
	Start, End int32
	Handler    int32
	CatchSlot  int32
	MonDepth   int32
}

// Function is one compiled method.
type Function struct {
	// ID is the function's index in Image.Functions, assigned by
	// Compile: runtimes keep per-function state in a slice indexed by
	// it instead of hashing Key.
	ID          int
	Class       string
	Name        string
	NParams     int // locals 0..NParams-1 hold receiver (if any) then args
	HasReceiver bool
	NLocals     int
	// MaxStack is the deepest the operand stack gets on any path,
	// filled by Compile: an interpreter frame's stack holds this many.
	MaxStack     int
	Void         bool
	Synchronized bool

	Code    []Instr
	Ints    []int64     // integer constant pool
	Strs    []string    // string constant pool
	Methods []MethodRef // method refs, indexed by Invoke A operands
	Callees []*Function // Methods resolved in the image (Image.Lookup), filled by Compile
	Fields  []FieldRef  // field refs, indexed by field ops
	Classes []string    // class refs, indexed by NewObj
	ExTable []ExRange

	// Source is the method's tree form, retained for the JIT tiers
	// (analogous to HotSpot retaining bytecode for recompilation).
	Source *lang.Method

	// key caches Key(). Compile fills it eagerly so concurrent readers
	// never race on a lazy write; hand-built Functions fall back to
	// concatenation.
	key string
}

// Key returns "Class.Name", the image-wide function key.
func (f *Function) Key() string {
	if f.key != "" {
		return f.key
	}
	return f.Class + "." + f.Name
}

// ClassFile is one compiled class.
type ClassFile struct {
	Name   string
	Fields []FieldInfo
	Funcs  []*Function
}

// FieldInfo describes a declared field.
type FieldInfo struct {
	Name   string
	Static bool
	IsRef  bool // reference-typed (objects, boxes, arrays) vs numeric/bool
}

// Func returns the named function of the class, or nil.
func (c *ClassFile) Func(name string) *Function {
	for _, f := range c.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Image is a fully compiled program: the unit the VM loads and runs.
type Image struct {
	Classes    []*ClassFile
	EntryClass string
	// Program is the source program, retained for the JIT tiers.
	Program *lang.Program
	// Statics lists every declared static field once, in declaration
	// order: a runtime gives each its own storage slot, and static
	// FieldRefs carry their slot index.
	Statics []StaticField

	funcs []*Function // every function, indexed by Function.ID
}

// StaticField is one static field's storage slot. A (class, name) pair
// declared twice is one slot whose zero is the last declaration's.
type StaticField struct {
	Class string
	Name  string
	IsRef bool // starts null rather than 0
}

// StaticSlot returns the slot of the named static field, or -1 when
// the image declares no such static.
func (img *Image) StaticSlot(class, name string) int {
	for i, s := range img.Statics {
		if s.Name == name && s.Class == class {
			return i
		}
	}
	return -1
}

// Class returns the named class file, or nil.
func (img *Image) Class(name string) *ClassFile {
	for _, c := range img.Classes {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Lookup resolves a method ref to its function, or nil.
func (img *Image) Lookup(ref MethodRef) *Function {
	c := img.Class(ref.Class)
	if c == nil {
		return nil
	}
	return c.Func(ref.Method)
}

// Entry returns the program's main function, or nil.
func (img *Image) Entry() *Function {
	c := img.Class(img.EntryClass)
	if c == nil {
		return nil
	}
	return c.Func("main")
}

// Functions returns every function in the image in declaration order,
// indexed by Function.ID. The slice is shared; callers must not modify
// it.
func (img *Image) Functions() []*Function { return img.funcs }
