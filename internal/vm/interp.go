package vm

import (
	"fmt"

	"repro/internal/bytecode"
)

// interpret executes fn's bytecode directly. It is the reference
// semantics: the JIT tiers must agree with it on every program (that
// agreement is the miscompilation oracle). prof is fn's profile, which
// the loop's backedges feed.
func (m *Machine) interpret(fn *bytecode.Function, prof *MethodProfile, args []Value) (Value, error) {
	f := newFrame(fn)
	copy(f.locals, args)
	m.frames = append(m.frames, f)
	defer func() {
		m.frames = m.frames[:len(m.frames)-1]
		freeFrame(f)
	}()

	code := fn.Code
	pc := int32(0)

	push := func(v Value) { f.stack = append(f.stack, v) }
	pop := func() Value {
		v := f.stack[len(f.stack)-1]
		f.stack = f.stack[:len(f.stack)-1]
		return v
	}

	// raise routes an in-flight exception: to a handler in this frame
	// if one covers pc, otherwise out of the frame after releasing any
	// monitors this frame entered. Returns the new pc, or -1 to
	// propagate.
	raise := func(t *Thrown) int32 {
		m.trace("runtime.exceptions")
		for _, ex := range fn.ExTable {
			if pc >= ex.Start && pc < ex.End {
				for len(f.mons) > int(ex.MonDepth) {
					me := f.mons[len(f.mons)-1]
					f.mons = f.mons[:len(f.mons)-1]
					me.mon.Depth--
					m.heldMonitors--
				}
				f.stack = f.stack[:0]
				f.locals[ex.CatchSlot] = IntVal(t.Code)
				return ex.Handler
			}
		}
		for len(f.mons) > 0 {
			me := f.mons[len(f.mons)-1]
			f.mons = f.mons[:len(f.mons)-1]
			me.mon.Depth--
			m.heldMonitors--
		}
		m.trace("runtime.exceptions.unwind")
		return -1
	}

	for {
		if err := m.Step(); err != nil {
			return Value{}, err
		}
		if pc < 0 || pc >= int32(len(code)) {
			return Value{}, fmt.Errorf("vm: %s: pc %d out of range", fn.Key(), pc)
		}
		ins := code[pc]
		switch ins.Op {
		case bytecode.Nop:

		case bytecode.Const:
			v := fn.Ints[ins.A]
			if ins.B == 1 {
				push(LongVal(v))
			} else {
				push(IntVal(v))
			}
		case bytecode.ConstStr:
			push(StrVal(fn.Strs[ins.A]))
		case bytecode.ConstBool:
			push(BoolVal(ins.A != 0))
		case bytecode.Load:
			push(f.locals[ins.A])
		case bytecode.Store:
			f.locals[ins.A] = pop()
		case bytecode.Dup:
			push(f.stack[len(f.stack)-1])
		case bytecode.Pop:
			pop()

		case bytecode.Add:
			b, a := pop(), pop()
			push(Arith(func(x, y int64) int64 { return x + y }, a, b))
		case bytecode.Sub:
			b, a := pop(), pop()
			push(Arith(func(x, y int64) int64 { return x - y }, a, b))
		case bytecode.Mul:
			b, a := pop(), pop()
			push(Arith(func(x, y int64) int64 { return x * y }, a, b))
		case bytecode.Div:
			b, a := pop(), pop()
			if b.I == 0 {
				if h := raise(&Thrown{Code: bytecode.ExcArithmetic}); h >= 0 {
					pc = h
					continue
				}
				return Value{}, &Thrown{Code: bytecode.ExcArithmetic}
			}
			push(Arith(divJava, a, b))
		case bytecode.Rem:
			b, a := pop(), pop()
			if b.I == 0 {
				if h := raise(&Thrown{Code: bytecode.ExcArithmetic}); h >= 0 {
					pc = h
					continue
				}
				return Value{}, &Thrown{Code: bytecode.ExcArithmetic}
			}
			push(Arith(remJava, a, b))
		case bytecode.And:
			b, a := pop(), pop()
			if a.Kind == KBool {
				push(BoolVal(a.I != 0 && b.I != 0))
			} else {
				push(Arith(func(x, y int64) int64 { return x & y }, a, b))
			}
		case bytecode.Or:
			b, a := pop(), pop()
			if a.Kind == KBool {
				push(BoolVal(a.I != 0 || b.I != 0))
			} else {
				push(Arith(func(x, y int64) int64 { return x | y }, a, b))
			}
		case bytecode.Xor:
			b, a := pop(), pop()
			if a.Kind == KBool {
				push(BoolVal((a.I != 0) != (b.I != 0)))
			} else {
				push(Arith(func(x, y int64) int64 { return x ^ y }, a, b))
			}
		case bytecode.Shl:
			b, a := pop(), pop()
			push(Arith(shlJava(a.Kind == KLong), a, b))
		case bytecode.Shr:
			b, a := pop(), pop()
			push(Arith(shrJava(a.Kind == KLong), a, b))
		case bytecode.Neg:
			a := pop()
			push(Arith(func(x, _ int64) int64 { return -x }, a, a))
		case bytecode.BitNot:
			a := pop()
			push(Arith(func(x, _ int64) int64 { return ^x }, a, a))

		case bytecode.CmpEq, bytecode.CmpNe:
			b, a := pop(), pop()
			eq := false
			if a.IsRef() && b.IsRef() {
				eq = SameRef(a, b)
			} else {
				eq = a.I == b.I
			}
			if ins.Op == bytecode.CmpNe {
				eq = !eq
			}
			push(BoolVal(eq))
		case bytecode.CmpLt:
			b, a := pop(), pop()
			push(BoolVal(a.I < b.I))
		case bytecode.CmpLe:
			b, a := pop(), pop()
			push(BoolVal(a.I <= b.I))
		case bytecode.CmpGt:
			b, a := pop(), pop()
			push(BoolVal(a.I > b.I))
		case bytecode.CmpGe:
			b, a := pop(), pop()
			push(BoolVal(a.I >= b.I))
		case bytecode.Not:
			a := pop()
			push(BoolVal(a.I == 0))

		case bytecode.Jump:
			if ins.A <= pc {
				prof.Backedges++
			}
			pc = ins.A
			continue
		case bytecode.JumpIfFalse:
			if !pop().Bool() {
				if ins.A <= pc {
					prof.Backedges++
				}
				pc = ins.A
				continue
			}
		case bytecode.JumpIfTrue:
			if pop().Bool() {
				if ins.A <= pc {
					prof.Backedges++
				}
				pc = ins.A
				continue
			}

		case bytecode.NewObj:
			push(m.NewObject(fn.Classes[ins.A]))
		case bytecode.NewArr:
			n := pop()
			push(m.NewArray(n.I))

		case bytecode.GetField:
			recv := pop()
			v, thr := getFieldOf(recv, fn.Fields[ins.A].Name)
			if thr != nil {
				if h := raise(thr); h >= 0 {
					pc = h
					continue
				}
				return Value{}, thr
			}
			push(v)
		case bytecode.PutField:
			val := pop()
			recv := pop()
			o := recv.Obj()
			if recv.Kind != KObj || o == nil {
				thr := &Thrown{Code: bytecode.ExcNullPointer}
				if h := raise(thr); h >= 0 {
					pc = h
					continue
				}
				return Value{}, thr
			}
			if val.IsRef() {
				m.trace("gc.barriers")
			}
			o.SetField(fn.Fields[ins.A].Name, val)
		case bytecode.GetStatic:
			m.trace("runtime.statics")
			push(m.statics[fn.Fields[ins.A].Slot])
		case bytecode.PutStatic:
			m.statics[fn.Fields[ins.A].Slot] = pop()

		case bytecode.ALoad:
			idx, arr := pop(), pop()
			v, thr := arrayLoad(arr, idx.I)
			if thr != nil {
				if h := raise(thr); h >= 0 {
					pc = h
					continue
				}
				return Value{}, thr
			}
			push(v)
		case bytecode.AStore:
			val, idx, arr := pop(), pop(), pop()
			if thr := arrayStore(arr, idx.I, val.I); thr != nil {
				if h := raise(thr); h >= 0 {
					pc = h
					continue
				}
				return Value{}, thr
			}

		case bytecode.I2L:
			v := pop()
			push(LongVal(v.I))
		case bytecode.BoxOp:
			v := pop()
			push(m.NewBox(v.I))
		case bytecode.UnboxOp:
			v := pop()
			b := v.Obj()
			if v.Kind != KBox || b == nil {
				thr := &Thrown{Code: bytecode.ExcNullPointer}
				if h := raise(thr); h >= 0 {
					pc = h
					continue
				}
				return Value{}, thr
			}
			push(IntVal(b.BoxVal))

		case bytecode.Invoke, bytecode.InvokeReflect:
			// The receiver, if any, sits below the arguments, so one pop
			// loop fills the callee's argument buffer in order.
			ref := &fn.Methods[ins.A]
			n := ref.NArgs
			if !ref.Static {
				n++
			}
			callArgs := m.getArgs(n)
			for i := n - 1; i >= 0; i-- {
				callArgs[i] = pop()
			}
			if ins.Op == bytecode.InvokeReflect {
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
				if thr, ok := err.(*Thrown); ok {
					if h := raise(thr); h >= 0 {
						pc = h
						continue
					}
				}
				return Value{}, err
			}
			if !ref.Void {
				push(ret)
			}
		case bytecode.ReflectGetF:
			ref := fn.Fields[ins.A]
			m.trace("runtime.reflection")
			for i := 0; i < 4; i++ {
				if err := m.Step(); err != nil {
					return Value{}, err
				}
			}
			if ref.Static {
				m.trace("runtime.statics")
				push(m.statics[ref.Slot])
			} else {
				recv := pop()
				v, thr := getFieldOf(recv, ref.Name)
				if thr != nil {
					if h := raise(thr); h >= 0 {
						pc = h
						continue
					}
					return Value{}, thr
				}
				push(v)
			}

		case bytecode.MonitorEnter:
			v := pop()
			mon := m.monitorOf(v)
			if mon == nil {
				thr := &Thrown{Code: bytecode.ExcNullPointer}
				if h := raise(thr); h >= 0 {
					pc = h
					continue
				}
				return Value{}, thr
			}
			m.trace("runtime.monitors")
			if mon.Depth > 0 {
				m.trace("runtime.monitors.nested")
			}
			mon.Depth++
			m.heldMonitors++
			f.mons = append(f.mons, monEntry{mon: mon, v: v})
		case bytecode.MonitorExit:
			v := pop()
			mon := m.monitorOf(v)
			if mon == nil || mon.Depth == 0 || len(f.mons) == 0 {
				return Value{}, ErrIllegalMonitor
			}
			mon.Depth--
			m.heldMonitors--
			f.mons = f.mons[:len(f.mons)-1]

		case bytecode.Return:
			for len(f.mons) > 0 { // defensive; balanced code leaves none
				me := f.mons[len(f.mons)-1]
				f.mons = f.mons[:len(f.mons)-1]
				me.mon.Depth--
				m.heldMonitors--
			}
			return Value{}, nil
		case bytecode.ReturnVal:
			v := pop()
			for len(f.mons) > 0 {
				me := f.mons[len(f.mons)-1]
				f.mons = f.mons[:len(f.mons)-1]
				me.mon.Depth--
				m.heldMonitors--
			}
			return v, nil
		case bytecode.Throw:
			code := pop()
			thr := &Thrown{Code: code.I}
			if h := raise(thr); h >= 0 {
				pc = h
				continue
			}
			return Value{}, thr

		case bytecode.PrintOp:
			m.Print(pop())

		default:
			return Value{}, fmt.Errorf("vm: %s: bad opcode %d at pc %d", fn.Key(), ins.Op, pc)
		}
		pc++
	}
}

func getFieldOf(recv Value, name string) (Value, *Thrown) {
	o := recv.Obj()
	if recv.Kind != KObj || o == nil {
		return Value{}, &Thrown{Code: bytecode.ExcNullPointer}
	}
	return o.Field(name), nil
}

func arrayLoad(arr Value, idx int64) (Value, *Thrown) {
	a := arr.Arr()
	if a == nil {
		return Value{}, &Thrown{Code: bytecode.ExcNullPointer}
	}
	if idx < 0 || idx >= int64(len(a.Elems)) {
		return Value{}, &Thrown{Code: bytecode.ExcArrayBounds}
	}
	return IntVal(a.Elems[idx]), nil
}

func arrayStore(arr Value, idx, val int64) *Thrown {
	a := arr.Arr()
	if a == nil {
		return &Thrown{Code: bytecode.ExcNullPointer}
	}
	if idx < 0 || idx >= int64(len(a.Elems)) {
		return &Thrown{Code: bytecode.ExcArrayBounds}
	}
	a.Elems[idx] = int64(int32(val))
	return nil
}

func divJava(a, b int64) int64 { return a / b }
func remJava(a, b int64) int64 { return a % b }

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
