package jit

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/bytecode"
	"repro/internal/lang"
)

// emit is the code generator: it lowers an optimized Func to bytecode
// that the interpreter loop runs as a compiled frame
// (vm.Machine.RunCompiled); the caller links and verifies it. The code
// keeps the tree semantics compiled code always had (DESIGN.md §6 item
// 9): every IR node, and every counted-loop trip, costs a step when its
// evaluation begins, so an instruction's weight is the number of nodes
// that begin there; names resolve to the innermost binding of the
// tree's scopes, an assignment to an unbound name binds it in the
// innermost scope and a read of one fails the run. Lowering and the
// passes give every compound statement sequences for children, so the
// names bound at each point are the same on every path to it.
func emit(f *Func, img *bytecode.Image) *bytecode.Function {
	e := emitters.Get().(*emitter)
	defer e.release()
	e.f, e.img = f, img
	e.fn = &bytecode.Function{
		Class:        f.Class,
		Name:         f.Name,
		HasReceiver:  f.HasReceiver,
		Void:         f.Ret.Kind == lang.KindVoid,
		Synchronized: f.Synchronized,
	}
	e.push()
	if f.HasReceiver {
		e.binds = append(e.binds, binding{"this", e.newSlot()})
	}
	for _, p := range f.Params {
		e.binds = append(e.binds, binding{p.Name, e.newSlot()})
	}
	e.fn.NParams = int(e.slots)
	e.stmt(f.Body)
	e.emit(bytecode.Return, 0, 0) // a body that falls off its end returns nothing
	// The scratch buffers are the emitter's; the function gets exact copies.
	e.fn.Code, e.fn.Weights = slices.Clone(e.code), slices.Clone(e.weights)
	e.fn.NLocals = int(e.maxSlots)
	return e.fn
}

// emitters recycles emitters, whose code, weight and scope buffers keep
// their capacity from one compilation to the next.
var emitters = sync.Pool{New: func() any { return new(emitter) }}

// release empties e, dropping every reference into the compilation,
// and returns it to the pool.
func (e *emitter) release() {
	clear(e.binds)
	*e = emitter{code: e.code[:0], weights: e.weights[:0], binds: e.binds[:0], scopes: e.scopes[:0]}
	emitters.Put(e)
}

type binding struct {
	name string
	slot int32
}

// scopeMark is an open scope: where its bindings start and the slot
// count to restore when it closes.
type scopeMark struct {
	binds int
	slots int32
}

type emitter struct {
	f   *Func
	img *bytecode.Image
	fn  *bytecode.Function

	code    []bytecode.Instr
	weights []uint16
	// pending counts the steps of nodes whose evaluation begins at the
	// next instruction emitted.
	pending int

	binds    []binding // innermost last
	scopes   []scopeMark
	slots    int32 // slots in use
	maxSlots int32
	monitors int32 // monitor regions open at this point
}

// emit appends one instruction carrying the pending steps, and returns
// its pc. Steps beyond what a weight holds go on Nops before it.
func (e *emitter) emit(op bytecode.Op, a, b int32) int32 {
	for e.pending > math.MaxUint16 {
		e.code = append(e.code, bytecode.Instr{Op: bytecode.Nop})
		e.weights = append(e.weights, math.MaxUint16)
		e.pending -= math.MaxUint16
	}
	e.code = append(e.code, bytecode.Instr{Op: op, A: a, B: b})
	e.weights = append(e.weights, uint16(e.pending))
	e.pending = 0
	return int32(len(e.code) - 1)
}

// label returns the pc of the next instruction as a jump target. Steps
// still pending belong to the path falling into it, so they go on a Nop
// first.
func (e *emitter) label() int32 {
	if e.pending > 0 {
		e.emit(bytecode.Nop, 0, 0)
	}
	return int32(len(e.code))
}

// patch points the jump at pc to the next instruction.
func (e *emitter) patch(pc int32) { e.code[pc].A = e.label() }

func (e *emitter) push() {
	e.scopes = append(e.scopes, scopeMark{binds: len(e.binds), slots: e.slots})
}

func (e *emitter) pop() {
	s := e.scopes[len(e.scopes)-1]
	e.scopes = e.scopes[:len(e.scopes)-1]
	e.binds, e.slots = e.binds[:s.binds], s.slots
}

func (e *emitter) newSlot() int32 {
	s := e.slots
	e.slots++
	e.maxSlots = max(e.maxSlots, e.slots)
	return s
}

// lookup returns the slot of the innermost binding of name among
// binds[from:], or -1.
func (e *emitter) lookup(name string, from int) int32 {
	for i := len(e.binds) - 1; i >= from; i-- {
		if e.binds[i].name == name {
			return e.binds[i].slot
		}
	}
	return -1
}

// declare binds name in the innermost scope and returns its slot. A
// name the scope already binds keeps its slot: the older binding could
// never be read again.
func (e *emitter) declare(name string) int32 {
	slot := e.lookup(name, e.scopes[len(e.scopes)-1].binds)
	if slot < 0 {
		slot = e.newSlot()
		e.binds = append(e.binds, binding{name, slot})
	}
	return slot
}

func (e *emitter) stmt(n *Node) {
	e.pending++
	switch n.Kind {
	case NSeq:
		e.push()
		for _, k := range n.Kids {
			e.stmt(k)
		}
		e.pop()
	case NNop:
	case NDecl:
		e.expr(n.Kids[0])
		e.emit(bytecode.Store, e.declare(n.Name), 0)
	case NAssignVar:
		e.expr(n.Kids[0])
		slot := e.lookup(n.Name, 0)
		if slot < 0 {
			slot = e.declare(n.Name)
		}
		e.emit(bytecode.Store, slot, 0)
	case NAssignField:
		e.values(n.Kids)
		if n.Static {
			e.emit(bytecode.PutStatic, e.fieldRef(n), 0)
		} else {
			e.emit(bytecode.PutField, e.fieldRef(n), 0)
		}
	case NAssignIndex:
		e.values(n.Kids)
		e.emit(bytecode.AStore, 0, 0)
	case NIf:
		e.expr(n.Kids[0])
		jElse := e.emit(bytecode.JumpIfFalse, 0, 0)
		e.stmt(n.Kids[1])
		if len(n.Kids) > 2 {
			jEnd := e.emit(bytecode.Jump, 0, 0)
			e.patch(jElse)
			e.stmt(n.Kids[2])
			e.patch(jEnd)
		} else {
			e.patch(jElse)
		}
	case NFor:
		e.forLoop(n)
	case NWhile:
		top := e.label()
		e.expr(n.Kids[0])
		jEnd := e.emit(bytecode.JumpIfFalse, 0, 0)
		e.stmt(n.Kids[1])
		e.emit(bytecode.Jump, top, 0)
		e.patch(jEnd)
	case NSync:
		e.expr(n.Kids[0])
		e.emit(bytecode.Dup, 0, 0)
		tmp := e.newSlot()
		e.emit(bytecode.Store, tmp, 0)
		leak := int32(0)
		if n.NoExcCleanup {
			leak = 1
		}
		e.emit(bytecode.MonitorEnter, leak, 0)
		e.monitors++
		e.stmt(n.Kids[1])
		e.monitors--
		e.emit(bytecode.Load, tmp, 0)
		e.emit(bytecode.MonitorExit, 0, 0)
		e.slots = tmp
	case NReturn:
		if len(n.Kids) == 0 {
			e.emit(bytecode.Return, 0, 0)
		} else {
			e.expr(n.Kids[0])
			e.emit(bytecode.ReturnVal, 0, 0)
		}
	case NThrow:
		e.expr(n.Kids[0])
		e.emit(bytecode.Throw, 0, 0)
	case NTry:
		e.try(n)
	case NPrint:
		e.expr(n.Kids[0])
		e.emit(bytecode.PrintOp, 0, 0)
	case NExprStmt:
		if e.expr(n.Kids[0]) {
			e.emit(bytecode.Pop, 0, 0)
		}
	case NUncommonTrap:
		e.emit(bytecode.UncommonTrap, e.str(n.Name), 0)
		e.stmt(n.Kids[0])
	default:
		e.emit(bytecode.Fail, e.str(fmt.Sprintf("jit: exec: bad statement kind %v", n.Kind)), 0)
	}
}

// forLoop emits a counted loop in the shape the program's own loops
// have, so its test and increment fuse into superinstructions. Each
// trip costs a step before the bound is evaluated; the increment is
// free. The variable's slot is the loop's own even where the body
// shadows its name.
func (e *emitter) forLoop(n *Node) {
	e.expr(n.Kids[0])
	e.push()
	slot := e.declare(n.Name)
	e.emit(bytecode.Store, slot, 0)
	top := e.label()
	e.pending++ // the trip
	e.emit(bytecode.Load, slot, 0)
	e.expr(n.Kids[1])
	e.emit(bytecode.CmpLt, 0, 0)
	jEnd := e.emit(bytecode.JumpIfFalse, 0, 0)
	e.stmt(n.Kids[2])
	e.emit(bytecode.Load, slot, 0)
	e.emit(bytecode.Const, index(&e.fn.Ints, n.Step), 0)
	e.emit(bytecode.Add, 0, 0)
	e.emit(bytecode.Store, slot, 0)
	e.emit(bytecode.Jump, top, 0)
	e.patch(jEnd)
	e.pop()
}

// try emits a protected body and its handler. The handler binds the
// catch variable in a scope of its own.
func (e *emitter) try(n *Node) {
	start := int32(len(e.code))
	e.stmt(n.Kids[0])
	jEnd := e.emit(bytecode.Jump, 0, 0)
	end := int32(len(e.code))
	handler := e.label()
	e.push()
	slot := e.declare(n.Name)
	e.stmt(n.Kids[1])
	e.pop()
	e.patch(jEnd)
	e.fn.ExTable = append(e.fn.ExTable, bytecode.ExRange{
		Start: start, End: end, Handler: handler, CatchSlot: slot, MonDepth: e.monitors,
	})
}

// values emits each of ns as an expression, in order.
func (e *emitter) values(ns []*Node) {
	for _, n := range ns {
		e.expr(n)
	}
}

// expr emits n as an expression and reports whether it leaves a value
// (a call of a void method leaves none).
func (e *emitter) expr(n *Node) bool {
	e.pending++
	switch n.Kind {
	case NConstInt:
		long := int32(0)
		if n.IsLong {
			long = 1
		}
		e.emit(bytecode.Const, index(&e.fn.Ints, n.IVal), long)
	case NConstBool:
		v := int32(0)
		if n.IVal != 0 {
			v = 1
		}
		e.emit(bytecode.ConstBool, v, 0)
	case NConstStr:
		e.emit(bytecode.ConstStr, e.str(n.SVal), 0)
	case NVar:
		if slot := e.lookup(n.Name, 0); slot >= 0 {
			e.emit(bytecode.Load, slot, 0)
		} else {
			e.emit(bytecode.Fail, e.str(fmt.Sprintf("jit: exec: unbound variable %q in %s", n.Name, e.f.Key())), 1)
		}
	case NFieldGet:
		e.getField(n)
	case NBinary:
		e.binary(n)
	case NUnary:
		e.expr(n.Kids[0])
		switch n.UnOp {
		case lang.OpNeg:
			e.emit(bytecode.Neg, 0, 0)
		case lang.OpBitNot:
			e.emit(bytecode.BitNot, 0, 0)
		case lang.OpNot:
			e.emit(bytecode.Not, 0, 0)
		}
	case NCall, NReflectCall:
		return e.call(n)
	case NReflectGet:
		e.emit(bytecode.Cover, e.str("runtime.reflection"), 0)
		e.getField(n)
	case NNew:
		e.emit(bytecode.NewObj, index(&e.fn.Classes, n.Class), 0)
	case NNewArray:
		e.unary(n, bytecode.NewArr)
	case NIndex:
		e.values(n.Kids)
		e.emit(bytecode.ALoad, 0, 0)
	case NBox:
		e.unary(n, bytecode.BoxOp)
	case NUnbox:
		e.unary(n, bytecode.UnboxOp)
	case NWiden:
		e.unary(n, bytecode.I2L)
	case NNullCheck:
		e.unary(n, bytecode.NullCheck)
	case NCond:
		e.expr(n.Kids[0])
		jElse := e.emit(bytecode.JumpIfFalse, 0, 0)
		e.expr(n.Kids[1])
		jEnd := e.emit(bytecode.Jump, 0, 0)
		e.patch(jElse)
		e.expr(n.Kids[2])
		e.patch(jEnd)
	default:
		e.emit(bytecode.Fail, e.str(fmt.Sprintf("jit: exec: bad expression kind %v", n.Kind)), 1)
	}
	return true
}

// unary emits n's one operand, then op.
func (e *emitter) unary(n *Node, op bytecode.Op) {
	e.expr(n.Kids[0])
	e.emit(op, 0, 0)
}

// getField emits a read of the field n names, static or of its
// receiver.
func (e *emitter) getField(n *Node) {
	if n.Static {
		e.emit(bytecode.GetStatic, e.fieldRef(n), 0)
		return
	}
	e.expr(n.Kids[0])
	e.emit(bytecode.GetField, e.fieldRef(n), 0)
}

var binaryOps = [...]bytecode.Op{
	lang.OpAdd: bytecode.Add, lang.OpSub: bytecode.Sub, lang.OpMul: bytecode.Mul,
	lang.OpDiv: bytecode.Div, lang.OpRem: bytecode.Rem,
	lang.OpAnd: bytecode.And, lang.OpOr: bytecode.Or, lang.OpXor: bytecode.Xor,
	lang.OpShl: bytecode.Shl, lang.OpShr: bytecode.Shr,
	lang.OpEq: bytecode.CmpEq, lang.OpNe: bytecode.CmpNe, lang.OpLt: bytecode.CmpLt,
	lang.OpLe: bytecode.CmpLe, lang.OpGt: bytecode.CmpGt, lang.OpGe: bytecode.CmpGe,
}

// binary emits an operator. && and || yield a canonical boolean: the
// deciding operand, normalized unless it is one already.
func (e *emitter) binary(n *Node) {
	l, r := n.Kids[0], n.Kids[1]
	if n.BinOp == lang.OpLAnd || n.BinOp == lang.OpLOr {
		e.boolValue(l)
		e.emit(bytecode.Dup, 0, 0)
		jump := bytecode.JumpIfFalse
		if n.BinOp == lang.OpLOr {
			jump = bytecode.JumpIfTrue
		}
		j := e.emit(jump, 0, 0)
		e.emit(bytecode.Pop, 0, 0)
		e.boolValue(r)
		e.patch(j)
		return
	}
	e.expr(l)
	e.expr(r)
	e.emit(binaryOps[n.BinOp], 0, 0)
}

// boolValue emits n and, unless n always yields a canonical boolean,
// turns its value into one (not; not).
func (e *emitter) boolValue(n *Node) {
	e.expr(n)
	switch {
	case n.Kind == NConstBool,
		n.Kind == NUnary && n.UnOp == lang.OpNot,
		n.Kind == NBinary && n.BinOp >= lang.OpEq && n.BinOp <= lang.OpLOr:
		return
	}
	e.emit(bytecode.Not, 0, 0)
	e.emit(bytecode.Not, 0, 0)
}

// call emits a call and reports whether it leaves a value.
func (e *emitter) call(n *Node) bool {
	recv, args := CallArgs(n)
	ref := bytecode.MethodRef{Class: n.Class, Method: n.Name, Static: n.Static, NArgs: len(args)}
	ref.Void = e.img.Lookup(ref).Void // bytecode.Compile resolved every call the IR can hold
	if recv != nil {
		e.expr(recv)
	}
	for _, a := range args {
		e.expr(a)
	}
	op := bytecode.Invoke
	if n.Kind == NReflectCall {
		op = bytecode.InvokeReflect
	}
	e.emit(op, index(&e.fn.Methods, ref), 0)
	return !ref.Void
}

// index returns v's index in *pool, appending v if absent. A method's
// pools are small, so a linear search costs less than building a map.
func index[T comparable](pool *[]T, v T) int32 {
	for i, x := range *pool {
		if x == v {
			return int32(i)
		}
	}
	*pool = append(*pool, v)
	return int32(len(*pool) - 1)
}

func (e *emitter) str(s string) int32 { return index(&e.fn.Strs, s) }

func (e *emitter) fieldRef(n *Node) int32 {
	return index(&e.fn.Fields, bytecode.FieldRef{Class: n.Class, Name: n.Name, Static: n.Static})
}
