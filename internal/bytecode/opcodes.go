// Package bytecode defines the classfile-like executable form of mini-Java
// programs: a stack-based instruction set, a compiler from the lang AST,
// a structural verifier, and a disassembler.
//
// The simulated JVM's interpreter tier executes this bytecode directly;
// the JIT tiers compile from the method's tree form (like OpenJ9's
// Testarossa tree IR) once a method becomes hot.
package bytecode

// Op is a bytecode opcode.
type Op uint8

// Opcodes. Instructions use at most two int32 operands, A and B.
const (
	Nop Op = iota

	// Constants and locals.
	Const    // push int constant pool entry A (int or long per B: 0=int, 1=long)
	ConstStr // push string constant pool entry A
	ConstBool
	Load  // push local slot A
	Store // pop into local slot A
	Dup
	Pop

	// Arithmetic / bitwise (pop two, push one).
	Add
	Sub
	Mul
	Div // throws ArithmeticException (code -3) on divide by zero
	Rem
	And
	Or
	Xor
	Shl
	Shr
	Neg    // pop one, push one
	BitNot // pop one, push one

	// Comparisons (pop two, push bool).
	CmpEq
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
	Not // pop bool, push bool

	// Control flow.
	Jump        // unconditional branch to pc A
	JumpIfFalse // pop bool; branch to pc A when false
	JumpIfTrue  // pop bool; branch to pc A when true

	// Objects, fields, arrays.
	NewObj    // push new instance of class ref A
	NewArr    // pop length, push new int array
	GetField  // pop receiver, push field (field ref A)
	PutField  // pop value, pop receiver, store field (field ref A)
	GetStatic // push static field (field ref A)
	PutStatic // pop value into static field (field ref A)
	ALoad     // pop index, pop array, push element (bounds-checked, code -2)
	AStore    // pop value, pop index, pop array, store element

	// Conversions.
	I2L // pop int, push it widened to long

	// Boxing.
	BoxOp   // pop int, push Integer
	UnboxOp // pop Integer, push int (NPE code -1 on null)

	// Calls.
	Invoke        // method ref A; pops args (and receiver for instance), pushes result if non-void
	InvokeReflect // like Invoke but through the reflection runtime
	ReflectGetF   // field ref A read via reflection; pops receiver (or nothing if static)

	// Monitors.
	MonitorEnter // pop reference, enter its monitor
	MonitorExit  // pop reference, exit its monitor

	// Method exit / exceptions.
	Return    // return void
	ReturnVal // pop value, return it
	Throw     // pop int code, raise exception

	// Output.
	PrintOp // pop value, append to program output

	// Superinstructions. They never appear in Instr.Op: Compile stores
	// one in Instr.Fused of the first instruction of the four-instruction
	// sequence it names, when the sequence lies inside one block, and an
	// interpreter runs it in place of the four only when it charged that
	// block's fuel whole.
	LoadConstCmpLtJumpIfFalse // load A; const; cmplt; jump_if_false: a counted loop's test
	LoadLoadAddStore          // load A; load; add; store
	LoadConstAddStore         // load A; const; add; store: a counted loop's increment
)

var opNames = [...]string{
	Nop: "nop", Const: "const", ConstStr: "const_str", ConstBool: "const_bool",
	Load: "load", Store: "store", Dup: "dup", Pop: "pop",
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr",
	Neg: "neg", BitNot: "bitnot",
	CmpEq: "cmpeq", CmpNe: "cmpne", CmpLt: "cmplt", CmpLe: "cmple",
	CmpGt: "cmpgt", CmpGe: "cmpge", Not: "not",
	Jump: "jump", JumpIfFalse: "jump_if_false", JumpIfTrue: "jump_if_true",
	NewObj: "new", NewArr: "newarray",
	GetField: "getfield", PutField: "putfield",
	GetStatic: "getstatic", PutStatic: "putstatic",
	ALoad: "aload", AStore: "astore",
	I2L: "i2l", BoxOp: "box", UnboxOp: "unbox",
	Invoke: "invoke", InvokeReflect: "invoke_reflect", ReflectGetF: "reflect_getfield",
	MonitorEnter: "monitorenter", MonitorExit: "monitorexit",
	Return: "return", ReturnVal: "return_val", Throw: "throw",
	PrintOp:                   "print",
	LoadConstCmpLtJumpIfFalse: "load_const_cmplt_jump_if_false",
	LoadLoadAddStore:          "load_load_add_store",
	LoadConstAddStore:         "load_const_add_store",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "op?"
}

// StackEffect returns the net change in operand-stack depth caused by the
// instruction (pushes minus pops). Invoke variants depend on the method
// ref, so they are handled separately by the verifier.
func (o Op) StackEffect() (int, bool) {
	switch o {
	case Nop, Jump:
		return 0, true
	case Const, ConstStr, ConstBool, Load, Dup, GetStatic:
		return 1, true
	case Store, Pop, JumpIfFalse, JumpIfTrue, PutStatic, MonitorEnter, MonitorExit,
		ReturnVal, Throw, PrintOp:
		return -1, true
	case Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr,
		CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe:
		return -1, true
	case Neg, BitNot, Not, NewArr, I2L, BoxOp, UnboxOp, GetField:
		return 0, true
	case NewObj:
		return 1, true
	case PutField:
		return -2, true
	case ALoad:
		return -1, true
	case AStore:
		return -3, true
	case Return:
		return 0, true
	}
	return 0, false
}

// Instr is one bytecode instruction. Compile fills Fused and Block
// into what would otherwise be padding, so an Instr stays 12 bytes.
type Instr struct {
	Op Op
	// Fused is the superinstruction that runs this instruction and the
	// three after it at once, or Nop when there is none.
	Fused Op
	// Block is the length of the block this instruction leads, or 0
	// when it is not a leader. A block is a run of instructions that
	// only its first one can be entered at and only its last one can
	// leave early: every instruction but the last is pure.
	Block uint16
	A, B  int32
}

// pure reports whether o may sit inside a block: it cannot branch,
// throw, allocate, call or consume fuel beyond its own step. Charging a
// block of pure instructions at once is then exact.
func (o Op) pure() bool {
	switch o {
	case Nop, Const, ConstStr, ConstBool, Load, Store, Dup, Pop,
		Add, Sub, Mul, And, Or, Xor, Shl, Shr, Neg, BitNot,
		CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe, Not, I2L,
		GetStatic, PutStatic, PrintOp:
		return true
	}
	return false
}

// Exception codes used by the runtime for built-in failures.
const (
	ExcNullPointer = -1
	ExcArrayBounds = -2
	ExcArithmetic  = -3
)
