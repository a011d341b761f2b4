// Package lang defines a small Java-like language ("mini-Java") used as
// the input language for the simulated JVM and as the mutation substrate
// for the fuzzer. It covers every construct the optimization-evoking
// mutators need: counted and conditional loops, synchronized regions,
// method calls, reflection calls, autoboxing, try/catch, object fields,
// and integer arrays.
//
// Every statement carries a unique ID assigned from the owning Program's
// counter. Mutators address the mutation point by statement ID, which is
// stable across mutations (new statements receive fresh IDs).
package lang

// TypeKind enumerates the primitive kinds of the mini-Java type system.
type TypeKind uint8

// Type kinds.
const (
	KindVoid TypeKind = iota
	KindInt
	KindLong
	KindBool
	KindString
	KindIntBox // java.lang.Integer
	KindObject // a user-defined class type
	KindIntArray
)

// Type is a mini-Java type. For KindObject, Class names the class.
type Type struct {
	Kind  TypeKind
	Class string
}

// Convenience type constructors.
var (
	Void     = Type{Kind: KindVoid}
	Int      = Type{Kind: KindInt}
	Long     = Type{Kind: KindLong}
	Bool     = Type{Kind: KindBool}
	String   = Type{Kind: KindString}
	IntBox   = Type{Kind: KindIntBox}
	IntArray = Type{Kind: KindIntArray}
)

// ObjectType returns the class type for the named class.
func ObjectType(class string) Type { return Type{Kind: KindObject, Class: class} }

// IsNumeric reports whether t is an int or long.
func (t Type) IsNumeric() bool { return t.Kind == KindInt || t.Kind == KindLong }

// IsRef reports whether t is a reference type (object, box, array, string).
func (t Type) IsRef() bool {
	switch t.Kind {
	case KindObject, KindIntBox, KindIntArray, KindString:
		return true
	}
	return false
}

func (t Type) String() string {
	switch t.Kind {
	case KindVoid:
		return "void"
	case KindInt:
		return "int"
	case KindLong:
		return "long"
	case KindBool:
		return "boolean"
	case KindString:
		return "String"
	case KindIntBox:
		return "Integer"
	case KindObject:
		return t.Class
	case KindIntArray:
		return "int[]"
	}
	return "?"
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd // bitwise &
	OpOr  // bitwise |
	OpXor
	OpShl
	OpShr
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpLAnd // logical &&
	OpLOr  // logical ||
)

// IsComparison reports whether the operator yields a boolean from numeric operands.
func (op BinOp) IsComparison() bool { return op >= OpEq && op <= OpGe }

// IsLogical reports whether the operator combines booleans.
func (op BinOp) IsLogical() bool { return op == OpLAnd || op == OpLOr }

// IsArith reports whether the operator is an arithmetic/bitwise operator.
func (op BinOp) IsArith() bool { return op <= OpShr }

func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpRem:
		return "%"
	case OpAnd:
		return "&"
	case OpOr:
		return "|"
	case OpXor:
		return "^"
	case OpShl:
		return "<<"
	case OpShr:
		return ">>"
	case OpEq:
		return "=="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpLAnd:
		return "&&"
	case OpLOr:
		return "||"
	}
	return "?"
}

// UnOp enumerates unary operators.
type UnOp uint8

// Unary operators.
const (
	OpNeg    UnOp = iota // -x
	OpNot                // !x
	OpBitNot             // ~x
)

func (op UnOp) String() string {
	switch op {
	case OpNeg:
		return "-"
	case OpNot:
		return "!"
	case OpBitNot:
		return "~"
	}
	return "?"
}

// Expr is the interface implemented by all expression nodes.
type Expr interface {
	isExpr()
	// ResultType returns the static type computed by the checker
	// (zero Type before Check runs).
	ResultType() Type
}

// exprBase carries the checker-assigned static type.
type exprBase struct{ Ty Type }

func (exprBase) isExpr()            {}
func (e exprBase) ResultType() Type { return e.Ty }

// IntLit is an integer literal (int or long according to Ty).
type IntLit struct {
	exprBase
	V int64
}

// BoolLit is a boolean literal.
type BoolLit struct {
	exprBase
	V bool
}

// StrLit is a string literal.
type StrLit struct {
	exprBase
	V string
}

// VarRef references a local variable or parameter by name.
type VarRef struct {
	exprBase
	Name string
}

// FieldRef accesses a field. Recv is nil for a static field of Class.
type FieldRef struct {
	exprBase
	Recv  Expr
	Class string // declaring class
	Name  string
}

// Binary is a binary operation.
type Binary struct {
	exprBase
	Op   BinOp
	L, R Expr
}

// Unary is a unary operation.
type Unary struct {
	exprBase
	Op UnOp
	X  Expr
}

// Call invokes a method. Recv is nil for a static call on Class.
type Call struct {
	exprBase
	Recv   Expr
	Class  string // declaring class
	Method string
	Args   []Expr
}

// ReflectCall invokes a method through the reflection mechanism:
// Class.forName(Class).getDeclaredMethod(Method).invoke(Recv, Args...).
// Recv is nil for static targets.
type ReflectCall struct {
	exprBase
	Class  string
	Method string
	Recv   Expr
	Args   []Expr
}

// ReflectFieldGet reads a field through reflection:
// Class.forName(Class).getDeclaredField(Name).getInt(Recv).
type ReflectFieldGet struct {
	exprBase
	Class string
	Name  string
	Recv  Expr
}

// New allocates an instance of Class with the default constructor.
type New struct {
	exprBase
	Class string
}

// NewArray allocates an int array of the given length.
type NewArray struct {
	exprBase
	Len Expr
}

// Index reads an array element.
type Index struct {
	exprBase
	Arr, Idx Expr
}

// Box wraps an int into an Integer (Integer.valueOf).
type Box struct {
	exprBase
	X Expr
}

// Unbox extracts the int from an Integer (intValue()).
type Unbox struct {
	exprBase
	X Expr
}

// Widen is an implicit int-to-long widening conversion, inserted by the
// checker at assignment, argument, and return positions so that every
// execution engine widens at exactly the same program points.
type Widen struct {
	exprBase
	X Expr
}

// Cond is the ternary conditional operator c ? t : f.
type Cond struct {
	exprBase
	C, T, F Expr
}

// Stmt is the interface implemented by all statement nodes.
type Stmt interface {
	isStmt()
	// ID returns the program-unique statement identifier.
	ID() int
	setID(int)
}

// stmtBase carries the statement ID.
type stmtBase struct{ id int }

func (stmtBase) isStmt()        {}
func (s stmtBase) ID() int      { return s.id }
func (s *stmtBase) setID(n int) { s.id = n }

// VarDecl declares a local variable with an initializer.
type VarDecl struct {
	stmtBase
	Name string
	Ty   Type
	Init Expr
}

// Assign assigns Value to Target. Target must be a VarRef, FieldRef, or Index.
type Assign struct {
	stmtBase
	Target Expr
	Value  Expr
}

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct {
	stmtBase
	E Expr
}

// If is a conditional statement; Else may be nil.
type If struct {
	stmtBase
	Cond Expr
	Then *Block
	Else *Block
}

// For is a counted loop:
//
//	for (int Var = From; Var < To; Var += Step) Body
//
// Counted loops are what the JIT's loop optimizations recognize.
type For struct {
	stmtBase
	Var  string
	From Expr
	To   Expr
	Step int64
	Body *Block
}

// While is a general conditional loop.
type While struct {
	stmtBase
	Cond Expr
	Body *Block
}

// Sync is a synchronized region on the Monitor expression.
type Sync struct {
	stmtBase
	Monitor Expr
	Body    *Block
}

// Return returns from the enclosing method; E is nil for void returns.
type Return struct {
	stmtBase
	E Expr
}

// Throw raises a runtime exception carrying an int code.
type Throw struct {
	stmtBase
	E Expr
}

// Try executes Body; if a Throw unwinds into it, CatchVar is bound to the
// thrown code and Catch runs.
type Try struct {
	stmtBase
	Body     *Block
	CatchVar string
	Catch    *Block
}

// Print appends the value of E to the program output (the oracle channel).
type Print struct {
	stmtBase
	E Expr
}

// Block is a brace-delimited statement list; it is itself a statement.
type Block struct {
	stmtBase
	Stmts []Stmt
}

// Param is a method parameter.
type Param struct {
	Name string
	Ty   Type
}

// Method is a mini-Java method.
type Method struct {
	Name         string
	Params       []Param
	Ret          Type
	Body         *Block
	Static       bool
	Synchronized bool
}

// Field is a class field. All fields default to the zero value.
type Field struct {
	Name   string
	Ty     Type
	Static bool
}

// Class is a mini-Java class.
type Class struct {
	Name    string
	Fields  []*Field
	Methods []*Method
}

// Method returns the named method, or nil.
func (c *Class) Method(name string) *Method {
	for _, m := range c.Methods {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Field returns the named field, or nil.
func (c *Class) FieldByName(name string) *Field {
	for _, f := range c.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Program is a compilation unit: a set of classes plus the entry point.
// EntryClass must define "static void main()". nextID feeds statement IDs.
type Program struct {
	Classes    []*Class
	EntryClass string
	nextID     int
}

// Class returns the named class, or nil.
func (p *Program) Class(name string) *Class {
	for _, c := range p.Classes {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Entry returns the entry class and its main method, or nils.
func (p *Program) Entry() (*Class, *Method) {
	c := p.Class(p.EntryClass)
	if c == nil {
		return nil, nil
	}
	return c, c.Method("main")
}

// NewID allocates a fresh statement ID.
func (p *Program) NewID() int {
	p.nextID++
	return p.nextID
}

// Register assigns a fresh ID to s and returns s (generic helper for
// constructing statements attached to this program).
func Register[S Stmt](p *Program, s S) S {
	s.setID(p.NewID())
	return s
}

// MaxID returns the highest statement ID currently assigned.
func (p *Program) MaxID() int { return p.nextID }

// SyncIDs walks all statements and raises nextID above any existing ID.
// Call after constructing a Program from parsed or cloned parts.
func (p *Program) SyncIDs() {
	max := p.nextID
	for _, c := range p.Classes {
		for _, m := range c.Methods {
			WalkStmts(m.Body, func(s Stmt) bool {
				if s.ID() > max {
					max = s.ID()
				}
				return true
			})
		}
	}
	p.nextID = max
}
