package bytecode

import (
	"fmt"

	"repro/internal/lang"
)

// Compile lowers a checked program to an Image. The program must have
// passed lang.Check; Compile reports an error for constructs the checker
// would have rejected rather than crashing, but gives no guarantees about
// unchecked programs.
func Compile(p *lang.Program) (*Image, error) {
	img := &Image{EntryClass: p.EntryClass, Program: p}
	for _, cl := range p.Classes {
		cf := &ClassFile{Name: cl.Name}
		for _, f := range cl.Fields {
			cf.Fields = append(cf.Fields, FieldInfo{Name: f.Name, Static: f.Static, IsRef: f.Ty.IsRef()})
			if f.Static {
				img.declareStatic(cl.Name, f.Name, f.Ty.IsRef())
			}
		}
		for _, m := range cl.Methods {
			fn, err := compileMethod(p, cl, m)
			if err != nil {
				return nil, err
			}
			fn.ID = len(img.funcs)
			img.funcs = append(img.funcs, fn)
			cf.Funcs = append(cf.Funcs, fn)
		}
		img.Classes = append(img.Classes, cf)
	}
	if img.Entry() == nil {
		return nil, fmt.Errorf("bytecode: image has no entry %s.main", p.EntryClass)
	}
	for _, fn := range img.funcs {
		if err := img.LinkFunction(fn); err != nil {
			return nil, err
		}
	}
	return img, nil
}

// declareStatic gives a static field its slot; a redeclaration keeps
// the slot and takes the new zero.
func (img *Image) declareStatic(class, name string, isRef bool) {
	if i := img.StaticSlot(class, name); i >= 0 {
		img.Statics[i].IsRef = isRef
		return
	}
	img.Statics = append(img.Statics, StaticField{Class: class, Name: name, IsRef: isRef})
}

// LinkFunction resolves fn's method refs to their callees and its
// static field refs to their slots in img, so a runtime never looks
// either up by name while it executes, and fills fn's MaxStack, block
// fuel and superinstructions (linkCode). Compile links the functions of
// the image it builds; a JIT tier links the code it emits for one.
func (img *Image) LinkFunction(fn *Function) error {
	if err := linkCode(fn); err != nil {
		return fmt.Errorf("bytecode: link %s: %w", fn.Key(), err)
	}
	fn.Callees = make([]*Function, len(fn.Methods))
	for i, ref := range fn.Methods {
		fn.Callees[i] = img.Lookup(ref)
	}
	for i := range fn.Fields {
		ref := &fn.Fields[i]
		ref.Slot = -1
		if ref.Static {
			ref.Slot = int32(img.StaticSlot(ref.Class, ref.Name))
		}
	}
	return nil
}

// fnCompiler holds per-method compilation state.
type fnCompiler struct {
	prog   *lang.Program
	class  *lang.Class
	method *lang.Method
	fn     *Function

	scopes    []map[string]int
	nextSlot  int
	syncDepth int32 // static monitor nesting depth at the current point

	intPool map[int64]int32
	strPool map[string]int32
	mPool   map[MethodRef]int32
	fPool   map[FieldRef]int32
	cPool   map[string]int32
}

func compileMethod(p *lang.Program, cl *lang.Class, m *lang.Method) (*Function, error) {
	fc := &fnCompiler{
		prog:   p,
		class:  cl,
		method: m,
		fn: &Function{
			Class:        cl.Name,
			Name:         m.Name,
			HasReceiver:  !m.Static,
			Void:         m.Ret.Kind == lang.KindVoid,
			Synchronized: m.Synchronized,
			Source:       m,
			key:          cl.Name + "." + m.Name,
		},
		intPool: map[int64]int32{},
		strPool: map[string]int32{},
		mPool:   map[MethodRef]int32{},
		fPool:   map[FieldRef]int32{},
		cPool:   map[string]int32{},
	}
	fc.push()
	if !m.Static {
		fc.declare("this")
	}
	for _, pr := range m.Params {
		fc.declare(pr.Name)
	}
	fc.fn.NParams = fc.nextSlot
	if err := fc.block(m.Body); err != nil {
		return nil, err
	}
	// Implicit return for void methods falling off the end.
	fc.emit(Return, 0, 0)
	fc.fn.NLocals = fc.nextSlot
	return fc.fn, nil
}

func (fc *fnCompiler) push() { fc.scopes = append(fc.scopes, map[string]int{}) }
func (fc *fnCompiler) pop()  { fc.scopes = fc.scopes[:len(fc.scopes)-1] }

func (fc *fnCompiler) declare(name string) int {
	slot := fc.nextSlot
	fc.nextSlot++
	fc.scopes[len(fc.scopes)-1][name] = slot
	return slot
}

func (fc *fnCompiler) slot(name string) (int, error) {
	for i := len(fc.scopes) - 1; i >= 0; i-- {
		if s, ok := fc.scopes[i][name]; ok {
			return s, nil
		}
	}
	return 0, fmt.Errorf("bytecode: %s.%s: unresolved variable %q", fc.class.Name, fc.method.Name, name)
}

func (fc *fnCompiler) emit(op Op, a, b int32) int32 {
	fc.fn.Code = append(fc.fn.Code, Instr{Op: op, A: a, B: b})
	return int32(len(fc.fn.Code) - 1)
}

func (fc *fnCompiler) pc() int32 { return int32(len(fc.fn.Code)) }

func (fc *fnCompiler) patch(at int32) { fc.fn.Code[at].A = fc.pc() }

func (fc *fnCompiler) intConst(v int64) int32 {
	if i, ok := fc.intPool[v]; ok {
		return i
	}
	i := int32(len(fc.fn.Ints))
	fc.fn.Ints = append(fc.fn.Ints, v)
	fc.intPool[v] = i
	return i
}

func (fc *fnCompiler) strConst(v string) int32 {
	if i, ok := fc.strPool[v]; ok {
		return i
	}
	i := int32(len(fc.fn.Strs))
	fc.fn.Strs = append(fc.fn.Strs, v)
	fc.strPool[v] = i
	return i
}

func (fc *fnCompiler) methodRef(class, name string) (int32, error) {
	cl := fc.prog.Class(class)
	if cl == nil {
		return 0, fmt.Errorf("bytecode: unknown class %q", class)
	}
	m := cl.Method(name)
	if m == nil {
		return 0, fmt.Errorf("bytecode: unknown method %s.%s", class, name)
	}
	ref := MethodRef{Class: class, Method: name, Static: m.Static, NArgs: len(m.Params), Void: m.Ret.Kind == lang.KindVoid}
	if i, ok := fc.mPool[ref]; ok {
		return i, nil
	}
	i := int32(len(fc.fn.Methods))
	fc.fn.Methods = append(fc.fn.Methods, ref)
	fc.mPool[ref] = i
	return i, nil
}

func (fc *fnCompiler) fieldRef(class, name string) (int32, bool, error) {
	cl := fc.prog.Class(class)
	if cl == nil {
		return 0, false, fmt.Errorf("bytecode: unknown class %q", class)
	}
	f := cl.FieldByName(name)
	if f == nil {
		return 0, false, fmt.Errorf("bytecode: unknown field %s.%s", class, name)
	}
	ref := FieldRef{Class: class, Name: name, Static: f.Static}
	if i, ok := fc.fPool[ref]; ok {
		return i, f.Static, nil
	}
	i := int32(len(fc.fn.Fields))
	fc.fn.Fields = append(fc.fn.Fields, ref)
	fc.fPool[ref] = i
	return i, f.Static, nil
}

func (fc *fnCompiler) classRef(name string) int32 {
	if i, ok := fc.cPool[name]; ok {
		return i
	}
	i := int32(len(fc.fn.Classes))
	fc.fn.Classes = append(fc.fn.Classes, name)
	fc.cPool[name] = i
	return i
}

func (fc *fnCompiler) block(b *lang.Block) error {
	if b == nil {
		return nil
	}
	fc.push()
	defer fc.pop()
	for _, s := range b.Stmts {
		if err := fc.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (fc *fnCompiler) stmt(s lang.Stmt) error {
	switch n := s.(type) {
	case *lang.VarDecl:
		if err := fc.expr(n.Init); err != nil {
			return err
		}
		slot := fc.declare(n.Name)
		fc.emit(Store, int32(slot), 0)
	case *lang.Assign:
		return fc.assign(n)
	case *lang.ExprStmt:
		if err := fc.expr(n.E); err != nil {
			return err
		}
		if !isVoidExpr(n.E) {
			fc.emit(Pop, 0, 0)
		}
	case *lang.If:
		if err := fc.expr(n.Cond); err != nil {
			return err
		}
		jElse := fc.emit(JumpIfFalse, 0, 0)
		if err := fc.block(n.Then); err != nil {
			return err
		}
		if n.Else != nil {
			jEnd := fc.emit(Jump, 0, 0)
			fc.patch(jElse)
			if err := fc.block(n.Else); err != nil {
				return err
			}
			fc.patch(jEnd)
		} else {
			fc.patch(jElse)
		}
	case *lang.For:
		return fc.forLoop(n)
	case *lang.While:
		cond := fc.pc()
		if err := fc.expr(n.Cond); err != nil {
			return err
		}
		jEnd := fc.emit(JumpIfFalse, 0, 0)
		if err := fc.block(n.Body); err != nil {
			return err
		}
		fc.emit(Jump, cond, 0)
		fc.patch(jEnd)
	case *lang.Sync:
		return fc.sync(n)
	case *lang.Return:
		if n.E != nil {
			if err := fc.expr(n.E); err != nil {
				return err
			}
			fc.emit(ReturnVal, 0, 0)
		} else {
			fc.emit(Return, 0, 0)
		}
	case *lang.Throw:
		if err := fc.expr(n.E); err != nil {
			return err
		}
		fc.emit(Throw, 0, 0)
	case *lang.Try:
		return fc.try(n)
	case *lang.Print:
		if err := fc.expr(n.E); err != nil {
			return err
		}
		fc.emit(PrintOp, 0, 0)
	case *lang.Block:
		return fc.block(n)
	default:
		return fmt.Errorf("bytecode: unknown statement type %T", s)
	}
	return nil
}

func (fc *fnCompiler) assign(n *lang.Assign) error {
	switch t := n.Target.(type) {
	case *lang.VarRef:
		if err := fc.expr(n.Value); err != nil {
			return err
		}
		slot, err := fc.slot(t.Name)
		if err != nil {
			return err
		}
		fc.emit(Store, int32(slot), 0)
	case *lang.FieldRef:
		idx, static, err := fc.fieldRef(t.Class, t.Name)
		if err != nil {
			return err
		}
		if static {
			if err := fc.expr(n.Value); err != nil {
				return err
			}
			fc.emit(PutStatic, idx, 0)
			return nil
		}
		if err := fc.expr(t.Recv); err != nil {
			return err
		}
		if err := fc.expr(n.Value); err != nil {
			return err
		}
		fc.emit(PutField, idx, 0)
	case *lang.Index:
		if err := fc.expr(t.Arr); err != nil {
			return err
		}
		if err := fc.expr(t.Idx); err != nil {
			return err
		}
		if err := fc.expr(n.Value); err != nil {
			return err
		}
		fc.emit(AStore, 0, 0)
	default:
		return fmt.Errorf("bytecode: invalid assignment target %T", n.Target)
	}
	return nil
}

func (fc *fnCompiler) forLoop(n *lang.For) error {
	fc.push()
	defer fc.pop()
	if err := fc.expr(n.From); err != nil {
		return err
	}
	slot := int32(fc.declare(n.Var))
	fc.emit(Store, slot, 0)
	cond := fc.pc()
	fc.emit(Load, slot, 0)
	if err := fc.expr(n.To); err != nil {
		return err
	}
	fc.emit(CmpLt, 0, 0)
	jEnd := fc.emit(JumpIfFalse, 0, 0)
	if err := fc.block(n.Body); err != nil {
		return err
	}
	fc.emit(Load, slot, 0)
	fc.emit(Const, fc.intConst(n.Step), 0)
	fc.emit(Add, 0, 0)
	fc.emit(Store, slot, 0)
	fc.emit(Jump, cond, 0)
	fc.patch(jEnd)
	return nil
}

func (fc *fnCompiler) sync(n *lang.Sync) error {
	fc.push()
	defer fc.pop()
	if err := fc.expr(n.Monitor); err != nil {
		return err
	}
	tmp := int32(fc.declare("$mon" + itoa(int(fc.syncDepth))))
	fc.emit(Dup, 0, 0)
	fc.emit(Store, tmp, 0)
	fc.emit(MonitorEnter, 0, 0)
	fc.syncDepth++
	if err := fc.block(n.Body); err != nil {
		return err
	}
	fc.syncDepth--
	fc.emit(Load, tmp, 0)
	fc.emit(MonitorExit, 0, 0)
	return nil
}

func (fc *fnCompiler) try(n *lang.Try) error {
	start := fc.pc()
	depth := fc.syncDepth
	if err := fc.block(n.Body); err != nil {
		return err
	}
	jEnd := fc.emit(Jump, 0, 0)
	end := fc.pc()

	fc.push()
	catchSlot := int32(fc.declare(n.CatchVar))
	handler := fc.pc()
	if err := fc.block(n.Catch); err != nil {
		return err
	}
	fc.pop()
	fc.patch(jEnd)

	fc.fn.ExTable = append(fc.fn.ExTable, ExRange{
		Start: start, End: end, Handler: handler, CatchSlot: catchSlot, MonDepth: depth,
	})
	return nil
}

func isVoidExpr(e lang.Expr) bool {
	return e.ResultType().Kind == lang.KindVoid
}

func (fc *fnCompiler) expr(e lang.Expr) error {
	switch n := e.(type) {
	case *lang.IntLit:
		b := int32(0)
		if n.Ty.Kind == lang.KindLong {
			b = 1
		}
		fc.emit(Const, fc.intConst(n.V), b)
	case *lang.BoolLit:
		v := int32(0)
		if n.V {
			v = 1
		}
		fc.emit(ConstBool, v, 0)
	case *lang.StrLit:
		fc.emit(ConstStr, fc.strConst(n.V), 0)
	case *lang.VarRef:
		slot, err := fc.slot(n.Name)
		if err != nil {
			return err
		}
		fc.emit(Load, int32(slot), 0)
	case *lang.FieldRef:
		idx, static, err := fc.fieldRef(n.Class, n.Name)
		if err != nil {
			return err
		}
		if static {
			fc.emit(GetStatic, idx, 0)
			return nil
		}
		if err := fc.expr(n.Recv); err != nil {
			return err
		}
		fc.emit(GetField, idx, 0)
	case *lang.Binary:
		return fc.binary(n)
	case *lang.Unary:
		if err := fc.expr(n.X); err != nil {
			return err
		}
		switch n.Op {
		case lang.OpNeg:
			fc.emit(Neg, 0, 0)
		case lang.OpBitNot:
			fc.emit(BitNot, 0, 0)
		case lang.OpNot:
			fc.emit(Not, 0, 0)
		}
	case *lang.Call:
		idx, err := fc.methodRef(n.Class, n.Method)
		if err != nil {
			return err
		}
		ref := fc.fn.Methods[idx]
		if !ref.Static {
			if err := fc.expr(n.Recv); err != nil {
				return err
			}
		}
		for _, a := range n.Args {
			if err := fc.expr(a); err != nil {
				return err
			}
		}
		fc.emit(Invoke, idx, 0)
	case *lang.ReflectCall:
		idx, err := fc.methodRef(n.Class, n.Method)
		if err != nil {
			return err
		}
		ref := fc.fn.Methods[idx]
		if !ref.Static {
			if err := fc.expr(n.Recv); err != nil {
				return err
			}
		}
		for _, a := range n.Args {
			if err := fc.expr(a); err != nil {
				return err
			}
		}
		fc.emit(InvokeReflect, idx, 0)
	case *lang.ReflectFieldGet:
		idx, static, err := fc.fieldRef(n.Class, n.Name)
		if err != nil {
			return err
		}
		if !static {
			if err := fc.expr(n.Recv); err != nil {
				return err
			}
		}
		fc.emit(ReflectGetF, idx, 0)
	case *lang.New:
		fc.emit(NewObj, fc.classRef(n.Class), 0)
	case *lang.NewArray:
		if err := fc.expr(n.Len); err != nil {
			return err
		}
		fc.emit(NewArr, 0, 0)
	case *lang.Index:
		if err := fc.expr(n.Arr); err != nil {
			return err
		}
		if err := fc.expr(n.Idx); err != nil {
			return err
		}
		fc.emit(ALoad, 0, 0)
	case *lang.Box:
		if err := fc.expr(n.X); err != nil {
			return err
		}
		fc.emit(BoxOp, 0, 0)
	case *lang.Unbox:
		if err := fc.expr(n.X); err != nil {
			return err
		}
		fc.emit(UnboxOp, 0, 0)
	case *lang.Widen:
		if err := fc.expr(n.X); err != nil {
			return err
		}
		fc.emit(I2L, 0, 0)
	case *lang.Cond:
		if err := fc.expr(n.C); err != nil {
			return err
		}
		jF := fc.emit(JumpIfFalse, 0, 0)
		if err := fc.expr(n.T); err != nil {
			return err
		}
		jEnd := fc.emit(Jump, 0, 0)
		fc.patch(jF)
		if err := fc.expr(n.F); err != nil {
			return err
		}
		fc.patch(jEnd)
	default:
		return fmt.Errorf("bytecode: unknown expression type %T", e)
	}
	return nil
}

// binaryOps maps the non-short-circuit binary operators to their
// instructions.
var binaryOps = map[lang.BinOp]Op{
	lang.OpAdd: Add, lang.OpSub: Sub, lang.OpMul: Mul, lang.OpDiv: Div, lang.OpRem: Rem,
	lang.OpAnd: And, lang.OpOr: Or, lang.OpXor: Xor, lang.OpShl: Shl, lang.OpShr: Shr,
	lang.OpEq: CmpEq, lang.OpNe: CmpNe, lang.OpLt: CmpLt, lang.OpLe: CmpLe,
	lang.OpGt: CmpGt, lang.OpGe: CmpGe,
}

func (fc *fnCompiler) binary(n *lang.Binary) error {
	// Short-circuit logical operators.
	if n.Op == lang.OpLAnd || n.Op == lang.OpLOr {
		if err := fc.expr(n.L); err != nil {
			return err
		}
		fc.emit(Dup, 0, 0)
		var j int32
		if n.Op == lang.OpLAnd {
			j = fc.emit(JumpIfFalse, 0, 0)
		} else {
			j = fc.emit(JumpIfTrue, 0, 0)
		}
		fc.emit(Pop, 0, 0)
		if err := fc.expr(n.R); err != nil {
			return err
		}
		fc.patch(j)
		return nil
	}
	if err := fc.expr(n.L); err != nil {
		return err
	}
	if err := fc.expr(n.R); err != nil {
		return err
	}
	op, ok := binaryOps[n.Op]
	if !ok {
		return fmt.Errorf("bytecode: unmapped binary op %v", n.Op)
	}
	fc.emit(op, 0, 0)
	return nil
}

func itoa(n int) string {
	return fmt.Sprintf("%d", n)
}
