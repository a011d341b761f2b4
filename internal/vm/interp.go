package vm

import (
	"errors"
	"fmt"

	"repro/internal/bytecode"
)

// interpret executes fn's bytecode: the program's own code, which is
// the reference semantics the JIT tiers must agree with (that agreement
// is the miscompilation oracle), and, with traps set, code a JIT tier
// emitted (RunCompiled). prof is the profile the loop's backedges feed.
//
// Fuel is charged per block (bytecode.Instr.Block). At a block's
// leader, if the whole block's fuel fits under the step limit, it is
// taken at once and the block's instructions run without stepping, a
// superinstruction (Instr.Fused) standing in for the four it names.
// Otherwise each instruction takes its own weight as it runs, exactly
// as if there were no blocks. Only a block's last instruction can
// branch, throw, allocate, call or step on its own, so a run stops on
// the same instruction with the same step count either way. A block
// that needs no fuel has no leader mark and runs under the charge of
// the block before it.
//
// The operand stack is stack[:sp]. Only allocations and calls can start
// a collection, so f.sp is stored before each of them: that is all of
// an interpreted frame's stack the collector scans.
func (m *Machine) interpret(fn *bytecode.Function, prof *MethodProfile, args []Value, traps Traps) (Value, error) {
	f := m.newFrame(fn)
	copy(f.locals, args)
	f.traps = traps
	if traps == nil {
		m.frames = append(m.frames, f)
	} else {
		m.compiled = append(m.compiled, f)
	}
	defer m.popFrame(f)

	code, locals, stack := fn.Code, f.locals, f.stack
	pc, sp := int32(0), 0
	charged := false // the current block's steps are already taken
	var thr *Thrown  // the exception the throw path below routes
	for {
		if uint32(pc) >= uint32(len(code)) {
			return Value{}, fmt.Errorf("vm: %s: pc %d out of range", fn.Key(), pc)
		}
		ins := &code[pc]
		op := ins.Op
		if ins.Block != 0 {
			n := int64(ins.Block)
			if charged = m.steps+n <= m.limit; charged {
				m.steps += n
			}
		}
		if charged {
			if ins.Fused != bytecode.Nop {
				op = ins.Fused
			}
		} else if err := m.stepAt(fn, pc); err != nil {
			return Value{}, err
		}
		switch op {
		case bytecode.Nop:

		case bytecode.Const:
			stack[sp] = constVal(fn, ins)
			sp++
		case bytecode.ConstStr:
			stack[sp] = m.strVal(fn.Strs[ins.A])
			sp++
		case bytecode.ConstBool:
			stack[sp] = BoolVal(ins.A != 0)
			sp++
		case bytecode.Load:
			stack[sp] = locals[ins.A]
			sp++
		case bytecode.Store:
			sp--
			locals[ins.A] = stack[sp]
		case bytecode.Dup:
			stack[sp] = stack[sp-1]
			sp++
		case bytecode.Pop:
			sp--

		case bytecode.Add:
			sp--
			stack[sp-1] = Arith(addJava, stack[sp-1], stack[sp])
		case bytecode.Sub:
			sp--
			stack[sp-1] = Arith(subJava, stack[sp-1], stack[sp])
		case bytecode.Mul:
			sp--
			stack[sp-1] = Arith(mulJava, stack[sp-1], stack[sp])
		case bytecode.Div, bytecode.Rem:
			sp--
			a, b := stack[sp-1], stack[sp]
			if b.I == 0 {
				thr = &Thrown{Code: bytecode.ExcArithmetic}
				goto throw
			}
			if op == bytecode.Div {
				stack[sp-1] = Arith(divJava, a, b)
			} else {
				stack[sp-1] = Arith(remJava, a, b)
			}
		case bytecode.And:
			sp--
			a, b := stack[sp-1], stack[sp]
			if a.Kind == KBool {
				stack[sp-1] = BoolVal(a.I != 0 && b.I != 0)
			} else {
				stack[sp-1] = Arith(andJava, a, b)
			}
		case bytecode.Or:
			sp--
			a, b := stack[sp-1], stack[sp]
			if a.Kind == KBool {
				stack[sp-1] = BoolVal(a.I != 0 || b.I != 0)
			} else {
				stack[sp-1] = Arith(orJava, a, b)
			}
		case bytecode.Xor:
			sp--
			a, b := stack[sp-1], stack[sp]
			if a.Kind == KBool {
				stack[sp-1] = BoolVal((a.I != 0) != (b.I != 0))
			} else {
				stack[sp-1] = Arith(xorJava, a, b)
			}
		case bytecode.Shl:
			sp--
			a := stack[sp-1]
			stack[sp-1] = Arith(shlJava(a.Kind == KLong), a, stack[sp])
		case bytecode.Shr:
			sp--
			a := stack[sp-1]
			stack[sp-1] = Arith(shrJava(a.Kind == KLong), a, stack[sp])
		case bytecode.Neg:
			a := stack[sp-1]
			stack[sp-1] = Arith(negJava, a, a)
		case bytecode.BitNot:
			a := stack[sp-1]
			stack[sp-1] = Arith(bitNotJava, a, a)

		case bytecode.CmpEq, bytecode.CmpNe:
			sp--
			a, b := stack[sp-1], stack[sp]
			eq := false
			if a.IsRef() && b.IsRef() {
				eq = SameRef(a, b)
			} else {
				eq = a.I == b.I
			}
			stack[sp-1] = BoolVal(eq != (op == bytecode.CmpNe))
		case bytecode.CmpLt:
			sp--
			stack[sp-1] = BoolVal(stack[sp-1].I < stack[sp].I)
		case bytecode.CmpLe:
			sp--
			stack[sp-1] = BoolVal(stack[sp-1].I <= stack[sp].I)
		case bytecode.CmpGt:
			sp--
			stack[sp-1] = BoolVal(stack[sp-1].I > stack[sp].I)
		case bytecode.CmpGe:
			sp--
			stack[sp-1] = BoolVal(stack[sp-1].I >= stack[sp].I)
		case bytecode.Not:
			stack[sp-1] = BoolVal(stack[sp-1].I == 0)

		case bytecode.Jump:
			if ins.A <= pc {
				prof.Backedges++
			}
			pc = ins.A
			continue
		case bytecode.JumpIfFalse, bytecode.JumpIfTrue:
			sp--
			if stack[sp].Bool() == (op == bytecode.JumpIfTrue) {
				if ins.A <= pc {
					prof.Backedges++
				}
				pc = ins.A
				continue
			}

		case bytecode.NewObj:
			f.sp = sp
			stack[sp] = m.NewObject(fn.Classes[ins.A])
			sp++
		case bytecode.NewArr:
			f.sp = sp - 1
			stack[sp-1] = m.NewArray(stack[sp-1].I)

		case bytecode.GetField:
			recv := stack[sp-1]
			if recv.Kind != KObj {
				thr = &Thrown{Code: bytecode.ExcNullPointer}
				goto throw
			}
			stack[sp-1] = m.Heap.Field(recv.cell(), fn.Fields[ins.A].Name)
		case bytecode.PutField:
			sp -= 2
			recv, val := stack[sp], stack[sp+1]
			if recv.Kind != KObj {
				thr = &Thrown{Code: bytecode.ExcNullPointer}
				goto throw
			}
			if val.IsRef() && f.traps == nil {
				m.trace("gc.barriers")
			}
			m.Heap.SetField(recv.cell(), fn.Fields[ins.A].Name, val)
		case bytecode.GetStatic:
			m.trace("runtime.statics")
			stack[sp] = m.statics[fn.Fields[ins.A].Slot]
			sp++
		case bytecode.PutStatic:
			sp--
			m.statics[fn.Fields[ins.A].Slot] = stack[sp]

		case bytecode.ALoad:
			sp--
			v, t := m.Heap.arrayLoad(stack[sp-1], stack[sp].I)
			if t != nil {
				thr = t
				goto throw
			}
			stack[sp-1] = v
		case bytecode.AStore:
			sp -= 3
			if t := m.Heap.arrayStore(stack[sp], stack[sp+1].I, stack[sp+2].I); t != nil {
				thr = t
				goto throw
			}

		case bytecode.I2L:
			stack[sp-1] = LongVal(stack[sp-1].I)
		case bytecode.BoxOp:
			f.sp = sp - 1
			stack[sp-1] = m.NewBox(stack[sp-1].I)
		case bytecode.UnboxOp:
			v := stack[sp-1]
			if v.Kind != KBox {
				thr = &Thrown{Code: bytecode.ExcNullPointer}
				goto throw
			}
			stack[sp-1] = IntVal(m.Heap.cells[v.I].at)

		case bytecode.Invoke, bytecode.InvokeReflect:
			// The receiver, if any, sits below the arguments, so the
			// top n slots are the callee's argument buffer in order.
			ref := &fn.Methods[ins.A]
			n := ref.NArgs
			if !ref.Static {
				n++
			}
			sp -= n
			f.sp = sp
			callArgs := m.getArgs(n)
			copy(callArgs, stack[sp:sp+n])
			if op == bytecode.InvokeReflect {
				m.trace("runtime.reflection")
				// Reflection pays lookup overhead: extra fuel.
				for i := 0; i < 8; i++ {
					if err := m.Step(); err != nil {
						m.putArgs(callArgs)
						return Value{}, err
					}
				}
			}
			var ret Value
			var err error
			if !ref.Static && callArgs[0].Kind == KNull {
				err = &Thrown{Code: bytecode.ExcNullPointer}
			} else {
				ret, err = m.CallFunction(fn.Callees[ins.A], callArgs)
			}
			m.putArgs(callArgs)
			if err != nil {
				if t, ok := err.(*Thrown); ok {
					thr = t
					goto throw
				}
				return Value{}, err
			}
			if !ref.Void {
				stack[sp] = ret
				sp++
			}
		case bytecode.ReflectGetF:
			ref := &fn.Fields[ins.A]
			m.trace("runtime.reflection")
			for i := 0; i < 4; i++ {
				if err := m.Step(); err != nil {
					return Value{}, err
				}
			}
			if ref.Static {
				m.trace("runtime.statics")
				stack[sp] = m.statics[ref.Slot]
				sp++
			} else {
				recv := stack[sp-1]
				if recv.Kind != KObj {
					thr = &Thrown{Code: bytecode.ExcNullPointer}
					goto throw
				}
				stack[sp-1] = m.Heap.Field(recv.cell(), ref.Name)
			}

		case bytecode.MonitorEnter:
			sp--
			v := stack[sp]
			id := m.monitorOf(v)
			if id < 0 {
				thr = &Thrown{Code: bytecode.ExcNullPointer}
				goto throw
			}
			m.enter(id)
			f.mons = append(f.mons, monEntry{cell: id, v: v, leak: ins.A != 0})
		case bytecode.MonitorExit:
			sp--
			id := m.monitorOf(stack[sp])
			if id < 0 || m.Heap.cells[id].depth == 0 || len(f.mons) == 0 {
				return Value{}, ErrIllegalMonitor
			}
			m.Heap.cells[id].depth--
			m.heldMonitors--
			f.mons = f.mons[:len(f.mons)-1]

		case bytecode.Return:
			m.exitMonitors(f, 0, false) // emitted code returns from inside monitor regions
			return Value{}, nil
		case bytecode.ReturnVal:
			m.exitMonitors(f, 0, false)
			return stack[sp-1], nil
		case bytecode.Throw:
			thr = &Thrown{Code: stack[sp-1].I}
			goto throw

		case bytecode.PrintOp:
			sp--
			m.Print(stack[sp])

		case bytecode.NullCheck:
			if stack[sp-1].Kind == KNull {
				thr = &Thrown{Code: bytecode.ExcNullPointer}
				goto throw
			}
		case bytecode.Cover:
			m.trace(fn.Strs[ins.A])
		case bytecode.UncommonTrap:
			f.traps.UncommonTrap(fn.Strs[ins.A])
		case bytecode.Fail:
			return Value{}, errors.New(fn.Strs[ins.A])

		// Superinstructions: reached only inside a charged block.
		case bytecode.LoadConstCmpLtJumpIfFalse:
			if locals[ins.A].I < constVal(fn, &code[pc+1]).I {
				pc += 4
				continue
			}
			goto jumpIfFalse
		case bytecode.LoadConstCmpJumpIfFalse:
			// A constant is no reference, so an equality test compares
			// the words, as CmpEq and CmpNe do.
			a, b, taken := locals[ins.A].I, constVal(fn, &code[pc+1]).I, false
			switch code[pc+2].Op {
			case bytecode.CmpEq:
				taken = a == b
			case bytecode.CmpNe:
				taken = a != b
			case bytecode.CmpGt:
				taken = a > b
			case bytecode.CmpGe:
				taken = a >= b
			case bytecode.CmpLe:
				taken = a <= b
			}
			if taken {
				pc += 4
				continue
			}
			goto jumpIfFalse
		case bytecode.LoadLoadAddStore:
			locals[code[pc+3].A] = Arith(addJava, locals[ins.A], locals[code[pc+1].A])
			pc += 4
			continue
		case bytecode.LoadConstAddStore:
			locals[code[pc+3].A] = Arith(addJava, locals[ins.A], constVal(fn, &code[pc+1]))
			pc += 4
			// A counted loop's increment ends in its back edge. A jump
			// that leads no block was charged with this one, so it is
			// taken here rather than dispatched.
			if next := &code[pc]; next.Op == bytecode.Jump && next.Block == 0 {
				if next.A <= pc {
					prof.Backedges++
				}
				pc = next.A
			}
			continue

		default:
			return Value{}, fmt.Errorf("vm: %s: bad opcode %d at pc %d", fn.Key(), op, pc)
		}
		pc++
		continue

	jumpIfFalse: // a fused test at pc failed: take its jump_if_false
		pc += 3
		if code[pc].A <= pc {
			prof.Backedges++
		}
		pc = code[pc].A
		continue

	throw:
		h := m.raise(f, pc, thr)
		if h < 0 {
			return Value{}, thr
		}
		pc, sp = h, 0
	}
}

// popFrame ends f and keeps it for the machine's next call, its locals
// cleared (an interpreted frame's locals are GC roots). An interpreted
// frame is the innermost of m.frames. A compiled frame still holding
// monitors is ending on an error that is not an exception (a timeout,
// say), and releases them all, as compiled code unwinding its monitor
// regions does.
func (m *Machine) popFrame(f *frame) {
	if f.traps == nil {
		m.frames = m.frames[:len(m.frames)-1]
	} else {
		m.exitMonitors(f, 0, false)
		m.compiled = m.compiled[:len(m.compiled)-1]
	}
	f.fn, f.traps = nil, nil
	clear(f.locals)
	f.mons = f.mons[:0]
	m.free = append(m.free, f)
}

// constVal is the value a Const instruction pushes.
func constVal(fn *bytecode.Function, ins *bytecode.Instr) Value {
	if ins.B == 1 {
		return LongVal(fn.Ints[ins.A])
	}
	return IntVal(fn.Ints[ins.A])
}

// raise routes exception t, thrown at pc in f: to a handler in f's
// function if one covers pc, after releasing the monitors entered
// inside the protected range, otherwise out of the frame after
// releasing all of its monitors. A region marked leak keeps its
// monitor. It returns the handler's pc, or -1 to propagate.
func (m *Machine) raise(f *frame, pc int32, t *Thrown) int32 {
	compiled := f.traps != nil
	if !compiled {
		m.trace("runtime.exceptions")
	}
	for _, ex := range f.fn.ExTable {
		if pc >= ex.Start && pc < ex.End {
			m.exitMonitors(f, int(ex.MonDepth), true)
			f.locals[ex.CatchSlot] = IntVal(t.Code)
			return ex.Handler
		}
	}
	m.exitMonitors(f, 0, true)
	if !compiled {
		m.trace("runtime.exceptions.unwind")
	}
	return -1
}

// exitMonitors releases the monitors f holds beyond the first depth,
// innermost first. With keepLeaks, an entry marked leak is dropped
// without releasing its monitor.
func (m *Machine) exitMonitors(f *frame, depth int, keepLeaks bool) {
	for len(f.mons) > depth {
		me := f.mons[len(f.mons)-1]
		f.mons = f.mons[:len(f.mons)-1]
		if keepLeaks && me.leak {
			continue
		}
		m.Heap.cells[me.cell].depth--
		m.heldMonitors--
	}
}

func (h *Heap) arrayLoad(arr Value, idx int64) (Value, *Thrown) {
	if arr.Kind != KArr {
		return Value{}, &Thrown{Code: bytecode.ExcNullPointer}
	}
	c := &h.cells[arr.I]
	if idx < 0 || idx >= int64(c.n) {
		return Value{}, &Thrown{Code: bytecode.ExcArrayBounds}
	}
	return IntVal(h.elems[c.at+idx]), nil
}

func (h *Heap) arrayStore(arr Value, idx, val int64) *Thrown {
	if arr.Kind != KArr {
		return &Thrown{Code: bytecode.ExcNullPointer}
	}
	c := &h.cells[arr.I]
	if idx < 0 || idx >= int64(c.n) {
		return &Thrown{Code: bytecode.ExcArrayBounds}
	}
	h.elems[c.at+idx] = int64(int32(val))
	return nil
}

func addJava(a, b int64) int64    { return a + b }
func subJava(a, b int64) int64    { return a - b }
func mulJava(a, b int64) int64    { return a * b }
func divJava(a, b int64) int64    { return a / b }
func remJava(a, b int64) int64    { return a % b }
func andJava(a, b int64) int64    { return a & b }
func orJava(a, b int64) int64     { return a | b }
func xorJava(a, b int64) int64    { return a ^ b }
func negJava(a, _ int64) int64    { return -a }
func bitNotJava(a, _ int64) int64 { return ^a }

func shlJava(isLong bool) func(a, b int64) int64 {
	if isLong {
		return func(a, b int64) int64 { return a << uint(b&63) }
	}
	return func(a, b int64) int64 { return int64(int32(a) << uint(b&31)) }
}

func shrJava(isLong bool) func(a, b int64) int64 {
	if isLong {
		return func(a, b int64) int64 { return a >> uint(b&63) }
	}
	return func(a, b int64) int64 { return int64(int32(a) >> uint(b&31)) }
}
