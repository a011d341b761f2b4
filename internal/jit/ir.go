// Package jit implements the simulated JVM's JIT compiler: a tree IR
// (in the style of OpenJ9's Testarossa), a lowering step from the
// method's source tree, two optimization pipelines (C1 and C2) built
// from sixteen genuine transformation passes, and a code generator that
// emits the optimized IR as linked bytecode, which the machine's
// interpreter loop runs as "compiled code".
//
// Passes log flag-gated profile lines (package profile) and append
// interaction events to the compilation Context; seeded defects (package
// buginject) observe those events and either crash the compiler or
// corrupt the IR — reproducing the optimization-interaction failure mode
// the paper targets.
package jit

import (
	"repro/internal/lang"
)

// Prov is a provenance bitmask recording which optimizations produced or
// reshaped a node. Interactions show up as nodes whose provenance mixes
// several passes — exactly the state the bug predicates inspect.
type Prov uint16

// Provenance bits.
const (
	FromUnroll Prov = 1 << iota
	FromPeel
	FromUnswitch
	FromPreMainPost
	FromInline
	FromInlineSync
	FromCoarsen
	FromScalarReplace
	FromDereflect
	FromAutoboxElim
	FromGVN
	FromAlgebraic
)

func (p Prov) Has(bit Prov) bool { return p&bit != 0 }

// Count returns how many provenance bits are set (a cheap measure of how
// many optimizations touched the node).
func (p Prov) Count() int {
	n := 0
	for b := Prov(1); b != 0; b <<= 1 {
		if p&b != 0 {
			n++
		}
	}
	return n
}

// Kind enumerates IR node kinds. The IR deliberately stays a structured
// tree: loop and lock optimizations are tree reshapes, which is what
// makes their interactions explicit.
type Kind int

// Node kinds. Statement kinds first, then expressions.
const (
	NSeq Kind = iota
	NDecl
	NAssignVar
	NAssignField
	NAssignIndex
	NIf
	NFor
	NWhile
	NSync
	NReturn
	NThrow
	NTry
	NPrint
	NExprStmt
	NNop
	NUncommonTrap // compiled speculation: executing it deoptimizes

	NConstInt
	NConstBool
	NConstStr
	NVar
	NFieldGet
	NBinary
	NUnary
	NCall
	NReflectCall
	NReflectGet
	NNew
	NNewArray
	NIndex
	NBox
	NUnbox
	NWiden     // int -> long conversion
	NNullCheck // throws NPE when the kid is null, else passes it through
	NCond
)

var kindNames = map[Kind]string{
	NSeq: "seq", NDecl: "decl", NAssignVar: "assign", NAssignField: "putfield",
	NAssignIndex: "astore", NIf: "if", NFor: "for", NWhile: "while", NSync: "sync",
	NReturn: "return", NThrow: "throw", NTry: "try", NPrint: "print",
	NExprStmt: "exprstmt", NNop: "nop", NUncommonTrap: "uncommon_trap",
	NConstInt: "const", NConstBool: "constbool", NConstStr: "conststr",
	NVar: "var", NFieldGet: "getfield", NBinary: "binary", NUnary: "unary",
	NCall: "call", NReflectCall: "reflect_call", NReflectGet: "reflect_get",
	NNew: "new", NNewArray: "newarray", NIndex: "aload", NBox: "box",
	NUnbox: "unbox", NWiden: "i2l", NNullCheck: "nullcheck", NCond: "cond",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "kind?"
}

// IsStmt reports whether the kind is a statement node.
func (k Kind) IsStmt() bool { return k <= NUncommonTrap }

// Node is one IR tree node. Field use by kind:
//
//	NSeq:         Kids = statements
//	NDecl:        Name = variable, Kids[0] = init, Ty = declared type
//	NAssignVar:   Name = variable, Kids[0] = value
//	NAssignField: Class/Name = field, Static; Kids = [recv?, value]
//	NAssignIndex: Kids = [arr, idx, value]
//	NIf:          Kids = [cond, then, else?]  (then/else are NSeq)
//	NFor:         Name = loop var, Step; Kids = [from, to, body]
//	NWhile:       Kids = [cond, body]
//	NSync:        Kids = [monitor, body]; NoExcCleanup is a defect flag
//	NReturn:      Kids = [value?] (may be empty)
//	NThrow:       Kids = [value]
//	NTry:         Name = catch var; Kids = [body, catch]
//	NPrint:       Kids = [value]
//	NExprStmt:    Kids = [expr]
//	NUncommonTrap: Kids = [original statement]; Name = trap reason
//	NConstInt:    IVal, IsLong
//	NConstBool:   IVal (0/1)
//	NConstStr:    SVal
//	NVar:         Name; Ty
//	NFieldGet:    Class/Name, Static; Kids = [recv?]
//	NBinary:      BinOp; Kids = [l, r]; Ty
//	NUnary:       UnOp; Kids = [x]; Ty
//	NCall:        Class/Name = target, Static; Kids = [recv?, args...]
//	NReflectCall: like NCall but through reflection
//	NReflectGet:  Class/Name = field, Static; Kids = [recv?]
//	NNew:         Class
//	NNewArray:    Kids = [len]
//	NIndex:       Kids = [arr, idx]
//	NBox/NUnbox:  Kids = [x]
//	NCond:        Kids = [c, t, f]; Ty
type Node struct {
	Kind Kind
	Kids []*Node

	Name   string
	Class  string
	BinOp  lang.BinOp
	UnOp   lang.UnOp
	IVal   int64
	SVal   string
	IsLong bool
	Static bool
	Step   int64
	Ty     lang.Type

	Prov Prov

	// NoExcCleanup marks an NSync whose exception path omits the
	// monitor release — a seeded-miscompilation effect reproducing the
	// Listing 1 hazard. Correct compilation never sets it.
	NoExcCleanup bool
}

// Seq builds a sequence node.
func Seq(kids ...*Node) *Node { return &Node{Kind: NSeq, Kids: kids} }

// ConstInt builds an int constant node.
func ConstInt(v int64) *Node { return &Node{Kind: NConstInt, IVal: v, Ty: lang.Int} }

// Var builds a variable reference node.
func Var(name string, ty lang.Type) *Node { return &Node{Kind: NVar, Name: name, Ty: ty} }

// Clone deep-copies a subtree, preserving provenance and flags.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := *n
	c.Kids = make([]*Node, len(n.Kids))
	for i, k := range n.Kids {
		c.Kids[i] = k.Clone()
	}
	return &c
}

// Walk visits n and all descendants pre-order. Returning false from fn
// skips the node's children.
func (n *Node) Walk(fn func(*Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	for _, k := range n.Kids {
		k.Walk(fn)
	}
}

// CountNodes returns the subtree size (nil-safe).
func (n *Node) CountNodes() int {
	if n == nil {
		return 0
	}
	c := 0
	n.Walk(func(*Node) bool { c++; return true })
	return c
}

// AddProv sets a provenance bit on the whole subtree.
func (n *Node) AddProv(p Prov) {
	n.Walk(func(m *Node) bool { m.Prov |= p; return true })
}

// Func is a compiled method's IR.
type Func struct {
	Class        string
	Name         string
	Params       []lang.Param
	HasReceiver  bool
	Ret          lang.Type
	Synchronized bool
	Body         *Node // NSeq
}

// Key returns "Class.Name".
func (f *Func) Key() string { return f.Class + "." + f.Name }

// IsPure reports whether evaluating the expression subtree has no side
// effects and no failure modes other than reading state: constants,
// variable reads, field reads with pure receivers, and operators over
// pure operands. Calls, allocations, array accesses (bounds), division
// (zero) and reflection are impure.
func IsPure(n *Node) bool {
	if n == nil {
		return true
	}
	switch n.Kind {
	case NConstInt, NConstBool, NConstStr, NVar:
		return true
	case NFieldGet:
		return len(n.Kids) == 0 || (n.Kids[0] != nil && n.Kids[0].Kind == NVar)
	case NBinary:
		if n.BinOp == lang.OpDiv || n.BinOp == lang.OpRem {
			// Division can throw unless the divisor is a nonzero constant.
			r := n.Kids[1]
			if r.Kind != NConstInt || r.IVal == 0 {
				return false
			}
		}
		return IsPure(n.Kids[0]) && IsPure(n.Kids[1])
	case NUnary:
		return IsPure(n.Kids[0])
	case NCond:
		return IsPure(n.Kids[0]) && IsPure(n.Kids[1]) && IsPure(n.Kids[2])
	case NWiden:
		return IsPure(n.Kids[0])
	case NBox, NUnbox:
		// Box allocates; unbox can NPE. Treat unbox-of-box as impure too
		// (the autobox pass handles that shape explicitly).
		return false
	}
	return false
}

// strongPure reports whether the expression reads no mutable state at
// all: constants, local variable reads, and operators over them. Unlike
// IsPure it excludes field reads, which could observe writes made by a
// reordered impure sibling.
func strongPure(n *Node) bool {
	if n == nil {
		return true
	}
	switch n.Kind {
	case NConstInt, NConstBool, NConstStr, NVar:
		return true
	case NBinary:
		if n.BinOp == lang.OpDiv || n.BinOp == lang.OpRem {
			r := n.Kids[1]
			if r.Kind != NConstInt || r.IVal == 0 {
				return false
			}
		}
		return strongPure(n.Kids[0]) && strongPure(n.Kids[1])
	case NUnary, NWiden:
		return strongPure(n.Kids[0])
	case NCond:
		return strongPure(n.Kids[0]) && strongPure(n.Kids[1]) && strongPure(n.Kids[2])
	}
	return false
}

// ReadsVar reports whether the subtree reads the named variable.
func ReadsVar(n *Node, name string) bool {
	found := false
	n.Walk(func(m *Node) bool {
		if m.Kind == NVar && m.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// AssignsVar reports whether the subtree contains an assignment or
// declaration of the named variable (including loop variables).
func AssignsVar(n *Node, name string) bool {
	found := false
	n.Walk(func(m *Node) bool {
		switch m.Kind {
		case NAssignVar, NDecl:
			if m.Name == name {
				found = true
			}
		case NFor:
			if m.Name == name {
				found = true
			}
		}
		return !found
	})
	return found
}

// SameSimpleExpr reports whether two expression subtrees are
// syntactically identical simple values (constants, variable reads, or
// static field reads) — the equality the lock passes use to prove two
// monitors are the same object.
func SameSimpleExpr(a, b *Node) bool {
	if a == nil || b == nil {
		return false
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case NVar:
		return a.Name == b.Name
	case NConstStr:
		return a.SVal == b.SVal
	case NFieldGet:
		if a.Class != b.Class || a.Name != b.Name || a.Static != b.Static {
			return false
		}
		if a.Static {
			return true
		}
		return SameSimpleExpr(a.Kids[0], b.Kids[0])
	}
	return false
}
