package lang

import (
	"fmt"
	"strings"
)

// Parse parses mini-Java source text into a Program. Statement IDs are
// assigned in parse order. The entry class is the first class defining a
// static main method (or the first class if none does).
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	// Pre-scan class names so the parser can distinguish static accesses.
	classNames := map[string]bool{}
	for i := 0; i+1 < len(toks); i++ {
		if toks[i].Kind == tokIdent && toks[i].Text == "class" && toks[i+1].Kind == tokIdent {
			classNames[toks[i+1].Text] = true
		}
	}
	p := &parser{toks: toks, classes: classNames, prog: &Program{}}
	for !p.at(tokEOF) {
		c, err := p.parseClass()
		if err != nil {
			return nil, err
		}
		p.prog.Classes = append(p.prog.Classes, c)
	}
	for _, c := range p.prog.Classes {
		if m := c.Method("main"); m != nil && m.Static {
			p.prog.EntryClass = c.Name
			break
		}
	}
	if p.prog.EntryClass == "" && len(p.prog.Classes) > 0 {
		p.prog.EntryClass = p.prog.Classes[0].Name
	}
	return p.prog, nil
}

// MustParse parses src and panics on error (for tests and fixtures).
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	toks    []token
	i       int
	classes map[string]bool
	prog    *Program
}

func (p *parser) peek() token       { return p.toks[p.i] }
func (p *parser) at(k tokKind) bool { return p.toks[p.i].Kind == k }

// next consumes one token but never the final EOF, so a truncated
// program ends in a parse error rather than an index past the tokens.
func (p *parser) next() token {
	t := p.toks[p.i]
	if t.Kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) atPunct(s string) bool {
	t := p.peek()
	return t.Kind == tokPunct && t.Text == s
}

func (p *parser) atIdent(s string) bool {
	t := p.peek()
	return t.Kind == tokIdent && t.Text == s
}

func (p *parser) accept(s string) bool {
	if p.atPunct(s) || p.atIdent(s) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(s string) error {
	if p.accept(s) {
		return nil
	}
	t := p.peek()
	return fmt.Errorf("lang: line %d: expected %q, found %q", t.Line, s, t.Text)
}

func (p *parser) errf(format string, args ...any) error {
	t := p.peek()
	return fmt.Errorf("lang: line %d: %s", t.Line, fmt.Sprintf(format, args...))
}

var typeKeywords = map[string]Type{
	"void":    Void,
	"int":     Int,
	"long":    Long,
	"boolean": Bool,
	"String":  String,
	"Integer": IntBox,
}

// parseType parses a type name; returns ok=false if the upcoming token is
// not a type (without consuming it).
func (p *parser) parseType() (Type, bool) {
	t := p.peek()
	if t.Kind != tokIdent {
		return Void, false
	}
	if ty, ok := typeKeywords[t.Text]; ok {
		p.i++
		if ty.Kind == KindInt && p.atPunct("[") {
			p.i++
			if !p.accept("]") {
				return Void, false
			}
			return IntArray, true
		}
		return ty, true
	}
	if p.classes[t.Text] {
		p.i++
		return ObjectType(t.Text), true
	}
	return Void, false
}

func (p *parser) parseClass() (*Class, error) {
	if err := p.expect("class"); err != nil {
		return nil, err
	}
	name := p.next()
	if name.Kind != tokIdent {
		return nil, p.errf("expected class name")
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	c := &Class{Name: name.Text}
	for !p.atPunct("}") {
		static := false
		synchronized := false
		for {
			if p.atIdent("static") {
				p.i++
				static = true
				continue
			}
			if p.atIdent("synchronized") && p.toks[p.i+1].Kind == tokIdent {
				// "synchronized" as a method modifier (followed by a type).
				if _, isTy := typeKeywords[p.toks[p.i+1].Text]; isTy || p.classes[p.toks[p.i+1].Text] {
					p.i++
					synchronized = true
					continue
				}
			}
			break
		}
		ty, ok := p.parseType()
		if !ok {
			return nil, p.errf("expected member type, found %q", p.peek().Text)
		}
		memName := p.next()
		if memName.Kind != tokIdent {
			return nil, p.errf("expected member name")
		}
		if p.atPunct("(") {
			m, err := p.parseMethodRest(memName.Text, ty, static, synchronized)
			if err != nil {
				return nil, err
			}
			c.Methods = append(c.Methods, m)
		} else {
			if err := p.expect(";"); err != nil {
				return nil, err
			}
			c.Fields = append(c.Fields, &Field{Name: memName.Text, Ty: ty, Static: static})
		}
	}
	return c, p.expect("}")
}

func (p *parser) parseMethodRest(name string, ret Type, static, synchronized bool) (*Method, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	m := &Method{Name: name, Ret: ret, Static: static, Synchronized: synchronized}
	for !p.atPunct(")") {
		if len(m.Params) > 0 {
			if err := p.expect(","); err != nil {
				return nil, err
			}
		}
		ty, ok := p.parseType()
		if !ok {
			return nil, p.errf("expected parameter type")
		}
		pn := p.next()
		if pn.Kind != tokIdent {
			return nil, p.errf("expected parameter name")
		}
		m.Params = append(m.Params, Param{Name: pn.Text, Ty: ty})
	}
	p.i++ // ')'
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	m.Body = body
	return m, nil
}

func (p *parser) parseBlock() (*Block, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	b := Register(p.prog, &Block{})
	for !p.atPunct("}") {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.i++ // '}'
	return b, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.peek()
	if t.Kind == tokIdent {
		switch t.Text {
		case "if":
			return p.parseIf()
		case "for":
			return p.parseFor()
		case "while":
			return p.parseWhile()
		case "synchronized":
			return p.parseSync()
		case "return":
			p.i++
			if p.accept(";") {
				return Register(p.prog, &Return{}), nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return Register(p.prog, &Return{E: e}), p.expect(";")
		case "throw":
			p.i++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return Register(p.prog, &Throw{E: e}), p.expect(";")
		case "try":
			return p.parseTry()
		case "print":
			if p.toks[p.i+1].Kind == tokPunct && p.toks[p.i+1].Text == "(" {
				p.i += 2
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				return Register(p.prog, &Print{E: e}), p.expect(";")
			}
		}
		// Try a variable declaration: Type name = expr;
		save := p.i
		if ty, ok := p.parseType(); ok {
			if p.peek().Kind == tokIdent {
				name := p.next().Text
				if err := p.expect("="); err != nil {
					return nil, err
				}
				init, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				return Register(p.prog, &VarDecl{Name: name, Ty: ty, Init: init}), p.expect(";")
			}
			p.i = save
		}
	}
	if p.atPunct("{") {
		return p.parseBlock()
	}
	// Expression statement or assignment.
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.accept("=") {
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		switch e.(type) {
		case *VarRef, *FieldRef, *Index:
		default:
			return nil, p.errf("invalid assignment target %s", FormatExpr(e))
		}
		return Register(p.prog, &Assign{Target: e, Value: v}), p.expect(";")
	}
	return Register(p.prog, &ExprStmt{E: e}), p.expect(";")
}

func (p *parser) parseIf() (Stmt, error) {
	p.i++ // 'if'
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st := Register(p.prog, &If{Cond: cond, Then: then})
	if p.accept("else") {
		els, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		st.Else = els
	}
	return st, nil
}

// parseFor parses the counted-loop form emitted by Format:
// for (int v = e; v < e; v += n) { ... }
func (p *parser) parseFor() (Stmt, error) {
	p.i++ // 'for'
	if err := p.expect("("); err != nil {
		return nil, err
	}
	if err := p.expect("int"); err != nil {
		return nil, err
	}
	v := p.next()
	if v.Kind != tokIdent {
		return nil, p.errf("expected loop variable")
	}
	if err := p.expect("="); err != nil {
		return nil, err
	}
	from, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	if err := p.expect(v.Text); err != nil {
		return nil, err
	}
	if err := p.expect("<"); err != nil {
		return nil, err
	}
	to, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	if err := p.expect(v.Text); err != nil {
		return nil, err
	}
	if err := p.expect("+="); err != nil {
		return nil, err
	}
	step := p.next()
	if step.Kind != tokInt {
		return nil, p.errf("expected constant loop step")
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return Register(p.prog, &For{Var: v.Text, From: from, To: to, Step: step.Int, Body: body}), nil
}

func (p *parser) parseWhile() (Stmt, error) {
	p.i++ // 'while'
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return Register(p.prog, &While{Cond: cond, Body: body}), nil
}

func (p *parser) parseSync() (Stmt, error) {
	p.i++ // 'synchronized'
	if err := p.expect("("); err != nil {
		return nil, err
	}
	mon, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return Register(p.prog, &Sync{Monitor: mon, Body: body}), nil
}

func (p *parser) parseTry() (Stmt, error) {
	p.i++ // 'try'
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	if err := p.expect("catch"); err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cv := p.next()
	if cv.Kind != tokIdent {
		return nil, p.errf("expected catch variable")
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	catch, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return Register(p.prog, &Try{Body: body, CatchVar: cv.Text, Catch: catch}), nil
}

// Expression precedence climbing.
var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

var binOps = map[string]BinOp{
	"+": OpAdd, "-": OpSub, "*": OpMul, "/": OpDiv, "%": OpRem,
	"&": OpAnd, "|": OpOr, "^": OpXor, "<<": OpShl, ">>": OpShr,
	"==": OpEq, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
	"&&": OpLAnd, "||": OpLOr,
}

func (p *parser) parseExpr() (Expr, error) {
	e, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	// Ternary.
	if p.accept("?") {
		t, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		f, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &Cond{C: e, T: t, F: f}, nil
	}
	return e, nil
}

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != tokPunct {
			return lhs, nil
		}
		prec, ok := binPrec[t.Text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.i++
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Op: binOps[t.Text], L: lhs, R: rhs}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	// (long)(expr) cast, as emitted by Format for Widen nodes.
	if p.atPunct("(") && p.toks[p.i+1].Kind == tokIdent && p.toks[p.i+1].Text == "long" &&
		p.toks[p.i+2].Kind == tokPunct && p.toks[p.i+2].Text == ")" {
		p.i += 3
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Widen{X: x}, nil
	}
	switch {
	case p.atPunct("-"):
		p.i++
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negated literals so "-5" round-trips as a literal.
		if lit, ok := x.(*IntLit); ok {
			return &IntLit{exprBase: exprBase{Ty: lit.Ty}, V: -lit.V}, nil
		}
		return &Unary{Op: OpNeg, X: x}, nil
	case p.atPunct("!"):
		p.i++
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: OpNot, X: x}, nil
	case p.atPunct("~"):
		p.i++
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: OpBitNot, X: x}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.atPunct("."):
			p.i++
			name := p.next()
			if name.Kind != tokIdent {
				return nil, p.errf("expected member name after '.'")
			}
			if p.atPunct("(") {
				args, err := p.parseArgs()
				if err != nil {
					return nil, err
				}
				e = p.makeCall(e, name.Text, args)
			} else {
				if vr, ok := e.(*VarRef); ok && p.classes[vr.Name] {
					e = &FieldRef{Class: vr.Name, Name: name.Text}
				} else {
					e = &FieldRef{Recv: e, Name: name.Text}
				}
			}
		case p.atPunct("["):
			p.i++
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			e = &Index{Arr: e, Idx: idx}
		default:
			return e, nil
		}
	}
}

// makeCall builds the appropriate call node for recv.name(args),
// special-casing Integer.valueOf and x.intValue().
func (p *parser) makeCall(recv Expr, name string, args []Expr) Expr {
	if vr, ok := recv.(*VarRef); ok {
		if vr.Name == "Integer" && name == "valueOf" && len(args) == 1 {
			return &Box{X: args[0]}
		}
		if p.classes[vr.Name] {
			return &Call{Class: vr.Name, Method: name, Args: args}
		}
	}
	if name == "intValue" && len(args) == 0 {
		return &Unbox{X: recv}
	}
	return &Call{Recv: recv, Method: name, Args: args}
}

func (p *parser) parseArgs() ([]Expr, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var args []Expr
	for !p.atPunct(")") {
		if len(args) > 0 {
			if err := p.expect(","); err != nil {
				return nil, err
			}
		}
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
	}
	p.i++ // ')'
	return args, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case tokInt:
		p.i++
		return &IntLit{exprBase: exprBase{Ty: Int}, V: t.Int}, nil
	case tokLong:
		p.i++
		return &IntLit{exprBase: exprBase{Ty: Long}, V: t.Int}, nil
	case tokString:
		p.i++
		return &StrLit{exprBase: exprBase{Ty: String}, V: t.Text}, nil
	case tokIdent:
		switch t.Text {
		case "true", "false":
			p.i++
			return &BoolLit{exprBase: exprBase{Ty: Bool}, V: t.Text == "true"}, nil
		case "new":
			p.i++
			cn := p.next()
			if cn.Kind != tokIdent {
				return nil, p.errf("expected class name after new")
			}
			if cn.Text == "int" {
				if err := p.expect("["); err != nil {
					return nil, err
				}
				ln, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expect("]"); err != nil {
					return nil, err
				}
				return &NewArray{Len: ln}, nil
			}
			if err := p.expect("("); err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return &New{Class: cn.Text}, nil
		case "reflect_invoke":
			p.i++
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			if len(args) < 3 {
				return nil, p.errf("reflect_invoke needs class, method, receiver")
			}
			cls, ok1 := args[0].(*StrLit)
			mth, ok2 := args[1].(*StrLit)
			if !ok1 || !ok2 {
				return nil, p.errf("reflect_invoke class and method must be string literals")
			}
			recv := args[2]
			if vr, ok := recv.(*VarRef); ok && vr.Name == "null" {
				recv = nil
			}
			return &ReflectCall{Class: cls.V, Method: mth.V, Recv: recv, Args: args[3:]}, nil
		case "reflect_get":
			p.i++
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			if len(args) != 3 {
				return nil, p.errf("reflect_get needs class, field, receiver")
			}
			cls, ok1 := args[0].(*StrLit)
			fld, ok2 := args[1].(*StrLit)
			if !ok1 || !ok2 {
				return nil, p.errf("reflect_get class and field must be string literals")
			}
			recv := args[2]
			if vr, ok := recv.(*VarRef); ok && vr.Name == "null" {
				recv = nil
			}
			return &ReflectFieldGet{Class: cls.V, Name: fld.V, Recv: recv}, nil
		}
		p.i++
		return &VarRef{Name: t.Text}, nil
	case tokPunct:
		if t.Text == "(" {
			p.i++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return e, p.expect(")")
		}
	}
	return nil, p.errf("unexpected token %q", t.Text)
}

// ParseExprString parses a single expression (for tests and the reducer).
func ParseExprString(src string, classNames []string) (Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	cls := map[string]bool{}
	for _, c := range classNames {
		cls[c] = true
	}
	p := &parser{toks: toks, classes: cls, prog: &Program{}}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF) {
		return nil, fmt.Errorf("lang: trailing input %q", strings.TrimSpace(src[p.peek().Pos:]))
	}
	return e, nil
}
