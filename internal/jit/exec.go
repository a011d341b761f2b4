package jit

import (
	"fmt"

	"repro/internal/bytecode"
	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/vm"
)

// Compiled is the executable form of an optimized method: the optimized
// tree IR plus the runtime services captured at compile time. Executing
// it is running "compiled code"; any divergence from the bytecode
// interpreter on the same program is a miscompilation.
type Compiled struct {
	F   *Func
	Env vm.Env
	Log profile.Emitter
	Cov *covSink

	trapCount int
	trapLimit int

	// LIFO freelists (calls nest, so recursion through Env.Call takes a
	// fresh entry while the caller's is still popped): binding tables
	// for Invoke and argument buffers for NCall/NReflectCall.
	tables  []*bindings
	argBufs [][]vm.Value
}

// covSink is a tiny indirection so the executor can mark runtime
// coverage regions without a hard dependency on the tracker.
type covSink struct{ hit func(string) }

func (c *covSink) Hit(name string) {
	if c != nil && c.hit != nil {
		c.hit(name)
	}
}

// numberVars gives every distinct variable name in f a dense id: the
// receiver and params first (argIDs), then each binding or reference
// in the body. Compile numbers a Func once, after its last pass and
// before it is cached; cached Funcs are shared read-only, so nothing
// on the execution path may renumber them.
func (f *Func) numberVars() {
	ids := map[string]int32{}
	id := func(name string) int32 {
		v, ok := ids[name]
		if !ok {
			v = int32(len(ids))
			ids[name] = v
		}
		return v
	}
	f.argIDs = make([]int32, 0, len(f.Params)+1)
	if f.HasReceiver {
		f.argIDs = append(f.argIDs, id("this"))
	}
	for _, p := range f.Params {
		f.argIDs = append(f.argIDs, id(p.Name))
	}
	f.Body.Walk(func(n *Node) bool {
		switch n.Kind {
		case NDecl, NAssignVar, NVar, NFor, NTry:
			n.vid = id(n.Name)
		}
		return true
	})
	f.nvars = len(ids)
	f.numbered = true
}

// bindings is the executor's variable environment, a shallow-binding
// table: a flat slot stack (ids, vals) with scope marks, plus cur
// mapping each variable id to its innermost live slot. Lookups are one
// index; declaring a variable logs the slot it shadows in prev, and
// popping a scope restores those. The result is the lexical "innermost
// binding wins" rule without scanning names.
type bindings struct {
	ids   []int32    // slot -> variable id
	vals  []vm.Value // slot -> value
	prev  []int32    // slot -> the slot it shadowed (undo log), or -1
	marks []int      // first slot of each open scope
	cur   []int32    // variable id -> innermost live slot, or -1
}

func (b *bindings) push() { b.marks = append(b.marks, len(b.ids)) }

func (b *bindings) pop() {
	m := b.marks[len(b.marks)-1]
	b.marks = b.marks[:len(b.marks)-1]
	for i := len(b.ids) - 1; i >= m; i-- {
		b.cur[b.ids[i]] = b.prev[i]
	}
	clear(b.vals[m:])
	b.ids = b.ids[:m]
	b.vals = b.vals[:m]
	b.prev = b.prev[:m]
}

func (b *bindings) declare(id int32, v vm.Value) {
	b.prev = append(b.prev, b.cur[id])
	b.cur[id] = int32(len(b.ids))
	b.ids = append(b.ids, id)
	b.vals = append(b.vals, v)
}

func (b *bindings) get(id int32) (vm.Value, bool) {
	if s := b.cur[id]; s >= 0 {
		return b.vals[s], true
	}
	return vm.Value{}, false
}

func (b *bindings) set(id int32, v vm.Value) bool {
	if s := b.cur[id]; s >= 0 {
		b.vals[s] = v
		return true
	}
	return false
}

// reset empties the table for reuse with nvars variables. Invoke's
// outer scope is never popped, and an error can leave scopes open, so
// every live slot is unbound here rather than trusted to have popped.
func (b *bindings) reset(nvars int) {
	for _, id := range b.ids {
		b.cur[id] = -1
	}
	clear(b.vals)
	b.ids, b.vals, b.prev, b.marks = b.ids[:0], b.vals[:0], b.prev[:0], b.marks[:0]
	if len(b.cur) != nvars {
		b.cur = make([]int32, nvars)
		for i := range b.cur {
			b.cur[i] = -1
		}
	}
}

// getTable pops a binding table from the freelist, or makes one.
func (c *Compiled) getTable() *bindings {
	if k := len(c.tables); k > 0 {
		b := c.tables[k-1]
		c.tables = c.tables[:k-1]
		return b
	}
	b := &bindings{}
	b.reset(c.F.nvars)
	return b
}

func (c *Compiled) putTable(b *bindings) {
	b.reset(c.F.nvars)
	c.tables = append(c.tables, b)
}

// getArgs pops a call-argument buffer of length n from the freelist
// (the vm.Machine.getArgs scheme: callees copy their arguments out, so
// a buffer is free again once Env.Call returns).
func (c *Compiled) getArgs(n int) []vm.Value {
	if k := len(c.argBufs); k > 0 {
		buf := c.argBufs[k-1]
		c.argBufs = c.argBufs[:k-1]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]vm.Value, n)
}

func (c *Compiled) putArgs(buf []vm.Value) {
	clear(buf[:cap(buf)])
	c.argBufs = append(c.argBufs, buf)
}

type ctrl int

const (
	ctrlNext ctrl = iota
	ctrlReturn
)

// Invoke implements vm.CompiledMethod.
func (c *Compiled) Invoke(args []vm.Value) (vm.Value, error) {
	if !c.F.numbered {
		// Hand-built Compiled values (tests, tools) skip Compile.
		c.F.numberVars()
	}
	sc := c.getTable()
	sc.push()
	for j, id := range c.F.argIDs {
		sc.declare(id, args[j])
	}
	k, v, err := c.execStmt(sc, c.F.Body)
	c.putTable(sc)
	if err != nil {
		return vm.Value{}, err
	}
	if k == ctrlReturn {
		return v, nil
	}
	return vm.Value{}, nil
}

func (c *Compiled) execSeq(sc *bindings, n *Node) (ctrl, vm.Value, error) {
	sc.push()
	defer sc.pop()
	for _, k := range n.Kids {
		kc, v, err := c.execStmt(sc, k)
		if err != nil || kc == ctrlReturn {
			return kc, v, err
		}
	}
	return ctrlNext, vm.Value{}, nil
}

func (c *Compiled) execStmt(sc *bindings, n *Node) (ctrl, vm.Value, error) {
	if err := c.Env.Step(); err != nil {
		return ctrlNext, vm.Value{}, err
	}
	switch n.Kind {
	case NSeq:
		return c.execSeq(sc, n)
	case NNop:
		return ctrlNext, vm.Value{}, nil
	case NDecl:
		v, err := c.eval(sc, n.Kids[0])
		if err != nil {
			return ctrlNext, vm.Value{}, err
		}
		sc.declare(n.vid, v)
		return ctrlNext, vm.Value{}, nil
	case NAssignVar:
		v, err := c.eval(sc, n.Kids[0])
		if err != nil {
			return ctrlNext, vm.Value{}, err
		}
		if !sc.set(n.vid, v) {
			// A variable materialized by an optimization (e.g. scalar
			// replacement) may not have an explicit declaration on every
			// path; bind it in the innermost scope.
			sc.declare(n.vid, v)
		}
		return ctrlNext, vm.Value{}, nil
	case NAssignField:
		if n.Static {
			v, err := c.eval(sc, n.Kids[0])
			if err != nil {
				return ctrlNext, vm.Value{}, err
			}
			c.Env.SetStatic(n.Class, n.Name, v)
			return ctrlNext, vm.Value{}, nil
		}
		recv, err := c.eval(sc, n.Kids[0])
		if err != nil {
			return ctrlNext, vm.Value{}, err
		}
		v, err := c.eval(sc, n.Kids[1])
		if err != nil {
			return ctrlNext, vm.Value{}, err
		}
		o := recv.Obj()
		if recv.Kind != vm.KObj || o == nil {
			return ctrlNext, vm.Value{}, &vm.Thrown{Code: bytecode.ExcNullPointer}
		}
		o.SetField(n.Name, v)
		return ctrlNext, vm.Value{}, nil
	case NAssignIndex:
		arr, err := c.eval(sc, n.Kids[0])
		if err != nil {
			return ctrlNext, vm.Value{}, err
		}
		idx, err := c.eval(sc, n.Kids[1])
		if err != nil {
			return ctrlNext, vm.Value{}, err
		}
		v, err := c.eval(sc, n.Kids[2])
		if err != nil {
			return ctrlNext, vm.Value{}, err
		}
		a := arr.Arr()
		if a == nil {
			return ctrlNext, vm.Value{}, &vm.Thrown{Code: bytecode.ExcNullPointer}
		}
		if idx.I < 0 || idx.I >= int64(len(a.Elems)) {
			return ctrlNext, vm.Value{}, &vm.Thrown{Code: bytecode.ExcArrayBounds}
		}
		a.Elems[idx.I] = int64(int32(v.I))
		return ctrlNext, vm.Value{}, nil
	case NIf:
		cond, err := c.eval(sc, n.Kids[0])
		if err != nil {
			return ctrlNext, vm.Value{}, err
		}
		if cond.Bool() {
			return c.execStmt(sc, n.Kids[1])
		}
		if len(n.Kids) > 2 {
			return c.execStmt(sc, n.Kids[2])
		}
		return ctrlNext, vm.Value{}, nil
	case NFor:
		return c.execFor(sc, n)
	case NWhile:
		for {
			cond, err := c.eval(sc, n.Kids[0])
			if err != nil {
				return ctrlNext, vm.Value{}, err
			}
			if !cond.Bool() {
				return ctrlNext, vm.Value{}, nil
			}
			k, v, err := c.execStmt(sc, n.Kids[1])
			if err != nil || k == ctrlReturn {
				return k, v, err
			}
		}
	case NSync:
		return c.execSync(sc, n)
	case NReturn:
		if len(n.Kids) == 0 {
			return ctrlReturn, vm.Value{}, nil
		}
		v, err := c.eval(sc, n.Kids[0])
		if err != nil {
			return ctrlNext, vm.Value{}, err
		}
		return ctrlReturn, v, nil
	case NThrow:
		v, err := c.eval(sc, n.Kids[0])
		if err != nil {
			return ctrlNext, vm.Value{}, err
		}
		return ctrlNext, vm.Value{}, &vm.Thrown{Code: v.I}
	case NTry:
		k, v, err := c.execStmt(sc, n.Kids[0])
		if thr, ok := err.(*vm.Thrown); ok {
			sc.push()
			sc.declare(n.vid, vm.IntVal(thr.Code))
			k, v, err = c.execStmt(sc, n.Kids[1])
			sc.pop()
		}
		return k, v, err
	case NPrint:
		v, err := c.eval(sc, n.Kids[0])
		if err != nil {
			return ctrlNext, vm.Value{}, err
		}
		c.Env.Print(v)
		return ctrlNext, vm.Value{}, nil
	case NExprStmt:
		_, err := c.eval(sc, n.Kids[0])
		return ctrlNext, vm.Value{}, err
	case NUncommonTrap:
		// A compiled speculation failed at runtime: log the trap, count
		// it, and interpret the original statement inline. Too many
		// traps invalidate the compiled code so the method recompiles
		// without the speculation.
		c.trapCount++
		profile.EmitBehavior(c.Log, profile.FlagTraceDeoptimization, profile.LineUncommonTrap,
			"Uncommon trap occurred in %s reason=%s", c.F.Key(), n.Name)
		c.Cov.Hit("c2.traps.fire")
		c.Cov.Hit("runtime.deopt")
		if c.trapLimit > 0 && c.trapCount >= c.trapLimit {
			c.Env.InvalidateCode(c.F.Key())
		}
		return c.execStmt(sc, n.Kids[0])
	}
	return ctrlNext, vm.Value{}, fmt.Errorf("jit: exec: bad statement kind %v", n.Kind)
}

func (c *Compiled) execFor(sc *bindings, n *Node) (ctrl, vm.Value, error) {
	from, err := c.eval(sc, n.Kids[0])
	if err != nil {
		return ctrlNext, vm.Value{}, err
	}
	sc.push()
	defer sc.pop()
	sc.declare(n.vid, vm.IntVal(from.I))
	slot := len(sc.vals) - 1 // the loop variable's stack slot is stable
	for {
		if err := c.Env.Step(); err != nil {
			return ctrlNext, vm.Value{}, err
		}
		to, err := c.eval(sc, n.Kids[1])
		if err != nil {
			return ctrlNext, vm.Value{}, err
		}
		if sc.vals[slot].I >= to.I {
			return ctrlNext, vm.Value{}, nil
		}
		k, v, err := c.execStmt(sc, n.Kids[2])
		if err != nil || k == ctrlReturn {
			return k, v, err
		}
		sc.vals[slot] = vm.IntVal(sc.vals[slot].I + n.Step)
	}
}

func (c *Compiled) execSync(sc *bindings, n *Node) (ctrl, vm.Value, error) {
	mon, err := c.eval(sc, n.Kids[0])
	if err != nil {
		return ctrlNext, vm.Value{}, err
	}
	if err := c.Env.MonitorEnter(mon); err != nil {
		return ctrlNext, vm.Value{}, err
	}
	k, v, err := c.execStmt(sc, n.Kids[1])
	if err != nil {
		if _, isThrown := err.(*vm.Thrown); isThrown && n.NoExcCleanup {
			// Seeded defect: the compiled exception path omits the
			// monitor release (Listing 1's hazard). The monitor leaks.
			return k, v, err
		}
		if exitErr := c.Env.MonitorExit(mon); exitErr != nil {
			return ctrlNext, vm.Value{}, exitErr
		}
		return k, v, err
	}
	if exitErr := c.Env.MonitorExit(mon); exitErr != nil {
		return ctrlNext, vm.Value{}, exitErr
	}
	return k, v, nil
}

func (c *Compiled) eval(sc *bindings, n *Node) (vm.Value, error) {
	if err := c.Env.Step(); err != nil {
		return vm.Value{}, err
	}
	switch n.Kind {
	case NConstInt:
		if n.IsLong {
			return vm.LongVal(n.IVal), nil
		}
		return vm.IntVal(n.IVal), nil
	case NConstBool:
		return vm.BoolVal(n.IVal != 0), nil
	case NConstStr:
		return vm.StrVal(n.SVal), nil
	case NVar:
		v, ok := sc.get(n.vid)
		if !ok {
			return vm.Value{}, fmt.Errorf("jit: exec: unbound variable %q in %s", n.Name, c.F.Key())
		}
		return v, nil
	case NFieldGet:
		if n.Static {
			return c.Env.GetStatic(n.Class, n.Name), nil
		}
		recv, err := c.eval(sc, n.Kids[0])
		if err != nil {
			return vm.Value{}, err
		}
		o := recv.Obj()
		if recv.Kind != vm.KObj || o == nil {
			return vm.Value{}, &vm.Thrown{Code: bytecode.ExcNullPointer}
		}
		return o.Field(n.Name), nil
	case NBinary:
		return c.evalBinary(sc, n)
	case NUnary:
		x, err := c.eval(sc, n.Kids[0])
		if err != nil {
			return vm.Value{}, err
		}
		switch n.UnOp {
		case lang.OpNeg:
			return vm.Arith(func(a, _ int64) int64 { return -a }, x, x), nil
		case lang.OpBitNot:
			return vm.Arith(func(a, _ int64) int64 { return ^a }, x, x), nil
		case lang.OpNot:
			return vm.BoolVal(x.I == 0), nil
		}
	case NCall, NReflectCall:
		recvNode, argNodes := CallArgs(n)
		recv := vm.NullVal()
		if recvNode != nil {
			var err error
			recv, err = c.eval(sc, recvNode)
			if err != nil {
				return vm.Value{}, err
			}
		}
		args := c.getArgs(len(argNodes))
		for i, a := range argNodes {
			v, err := c.eval(sc, a)
			if err != nil {
				c.putArgs(args)
				return vm.Value{}, err
			}
			args[i] = v
		}
		ref := bytecode.MethodRef{Class: n.Class, Method: n.Name, Static: n.Static, NArgs: len(argNodes)}
		if n.Kind == NReflectCall {
			c.Cov.Hit("runtime.reflection")
			for i := 0; i < 8; i++ {
				if err := c.Env.Step(); err != nil {
					c.putArgs(args)
					return vm.Value{}, err
				}
			}
		}
		ret, err := c.Env.Call(ref, recv, args)
		c.putArgs(args)
		return ret, err
	case NReflectGet:
		c.Cov.Hit("runtime.reflection")
		if n.Static {
			return c.Env.GetStatic(n.Class, n.Name), nil
		}
		recv, err := c.eval(sc, n.Kids[0])
		if err != nil {
			return vm.Value{}, err
		}
		o := recv.Obj()
		if recv.Kind != vm.KObj || o == nil {
			return vm.Value{}, &vm.Thrown{Code: bytecode.ExcNullPointer}
		}
		return o.Field(n.Name), nil
	case NNew:
		return c.Env.NewObject(n.Class), nil
	case NNewArray:
		l, err := c.eval(sc, n.Kids[0])
		if err != nil {
			return vm.Value{}, err
		}
		return c.Env.NewArray(l.I), nil
	case NIndex:
		arr, err := c.eval(sc, n.Kids[0])
		if err != nil {
			return vm.Value{}, err
		}
		idx, err := c.eval(sc, n.Kids[1])
		if err != nil {
			return vm.Value{}, err
		}
		a := arr.Arr()
		if a == nil {
			return vm.Value{}, &vm.Thrown{Code: bytecode.ExcNullPointer}
		}
		if idx.I < 0 || idx.I >= int64(len(a.Elems)) {
			return vm.Value{}, &vm.Thrown{Code: bytecode.ExcArrayBounds}
		}
		return vm.IntVal(a.Elems[idx.I]), nil
	case NBox:
		x, err := c.eval(sc, n.Kids[0])
		if err != nil {
			return vm.Value{}, err
		}
		return c.Env.NewBox(x.I), nil
	case NUnbox:
		x, err := c.eval(sc, n.Kids[0])
		if err != nil {
			return vm.Value{}, err
		}
		b := x.Obj()
		if x.Kind != vm.KBox || b == nil {
			return vm.Value{}, &vm.Thrown{Code: bytecode.ExcNullPointer}
		}
		return vm.IntVal(b.BoxVal), nil
	case NWiden:
		x, err := c.eval(sc, n.Kids[0])
		if err != nil {
			return vm.Value{}, err
		}
		return vm.LongVal(x.I), nil
	case NNullCheck:
		x, err := c.eval(sc, n.Kids[0])
		if err != nil {
			return vm.Value{}, err
		}
		if x.Kind == vm.KNull {
			return vm.Value{}, &vm.Thrown{Code: bytecode.ExcNullPointer}
		}
		return x, nil
	case NCond:
		cond, err := c.eval(sc, n.Kids[0])
		if err != nil {
			return vm.Value{}, err
		}
		if cond.Bool() {
			return c.eval(sc, n.Kids[1])
		}
		return c.eval(sc, n.Kids[2])
	}
	return vm.Value{}, fmt.Errorf("jit: exec: bad expression kind %v", n.Kind)
}

func (c *Compiled) evalBinary(sc *bindings, n *Node) (vm.Value, error) {
	op := n.BinOp
	// Short-circuit logical operators must not evaluate the RHS eagerly.
	if op == lang.OpLAnd || op == lang.OpLOr {
		l, err := c.eval(sc, n.Kids[0])
		if err != nil {
			return vm.Value{}, err
		}
		if op == lang.OpLAnd && !l.Bool() {
			return vm.BoolVal(false), nil
		}
		if op == lang.OpLOr && l.Bool() {
			return vm.BoolVal(true), nil
		}
		r, err := c.eval(sc, n.Kids[1])
		if err != nil {
			return vm.Value{}, err
		}
		return vm.BoolVal(r.Bool()), nil
	}
	l, err := c.eval(sc, n.Kids[0])
	if err != nil {
		return vm.Value{}, err
	}
	r, err := c.eval(sc, n.Kids[1])
	if err != nil {
		return vm.Value{}, err
	}
	switch op {
	case lang.OpAdd:
		return vm.Arith(func(a, b int64) int64 { return a + b }, l, r), nil
	case lang.OpSub:
		return vm.Arith(func(a, b int64) int64 { return a - b }, l, r), nil
	case lang.OpMul:
		return vm.Arith(func(a, b int64) int64 { return a * b }, l, r), nil
	case lang.OpDiv:
		if r.I == 0 {
			return vm.Value{}, &vm.Thrown{Code: bytecode.ExcArithmetic}
		}
		return vm.Arith(func(a, b int64) int64 { return a / b }, l, r), nil
	case lang.OpRem:
		if r.I == 0 {
			return vm.Value{}, &vm.Thrown{Code: bytecode.ExcArithmetic}
		}
		return vm.Arith(func(a, b int64) int64 { return a % b }, l, r), nil
	case lang.OpAnd:
		if l.Kind == vm.KBool {
			return vm.BoolVal(l.I != 0 && r.I != 0), nil
		}
		return vm.Arith(func(a, b int64) int64 { return a & b }, l, r), nil
	case lang.OpOr:
		if l.Kind == vm.KBool {
			return vm.BoolVal(l.I != 0 || r.I != 0), nil
		}
		return vm.Arith(func(a, b int64) int64 { return a | b }, l, r), nil
	case lang.OpXor:
		if l.Kind == vm.KBool {
			return vm.BoolVal((l.I != 0) != (r.I != 0)), nil
		}
		return vm.Arith(func(a, b int64) int64 { return a ^ b }, l, r), nil
	case lang.OpShl:
		if l.Kind == vm.KLong {
			return vm.Arith(func(a, b int64) int64 { return a << uint(b&63) }, l, r), nil
		}
		return vm.Arith(func(a, b int64) int64 { return int64(int32(a) << uint(b&31)) }, l, r), nil
	case lang.OpShr:
		if l.Kind == vm.KLong {
			return vm.Arith(func(a, b int64) int64 { return a >> uint(b&63) }, l, r), nil
		}
		return vm.Arith(func(a, b int64) int64 { return int64(int32(a) >> uint(b&31)) }, l, r), nil
	case lang.OpEq, lang.OpNe:
		eq := false
		if l.IsRef() && r.IsRef() {
			eq = vm.SameRef(l, r)
		} else {
			eq = l.I == r.I
		}
		if op == lang.OpNe {
			eq = !eq
		}
		return vm.BoolVal(eq), nil
	case lang.OpLt:
		return vm.BoolVal(l.I < r.I), nil
	case lang.OpLe:
		return vm.BoolVal(l.I <= r.I), nil
	case lang.OpGt:
		return vm.BoolVal(l.I > r.I), nil
	case lang.OpGe:
		return vm.BoolVal(l.I >= r.I), nil
	}
	return vm.Value{}, fmt.Errorf("jit: exec: bad binary op %v", op)
}
