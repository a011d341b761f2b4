package lang

import "slices"

// Location describes where a statement lives inside a program: the owning
// class and method, the parent block, the index within it, and the chain
// of enclosing statements from the method body down to (excluding) the
// statement itself. Mutators use Locations to insert nested or adjacent
// code around a mutation point.
type Location struct {
	Class     *Class
	Method    *Method
	Parent    *Block
	Index     int
	Enclosing []Stmt // outermost first; includes Parent's ancestors and Parent itself
	Stmt      Stmt
}

// EnclosingSyncs returns the synchronized statements enclosing the
// location, innermost last.
func (l *Location) EnclosingSyncs() []*Sync {
	var out []*Sync
	for _, s := range l.Enclosing {
		if sy, ok := s.(*Sync); ok {
			out = append(out, sy)
		}
	}
	return out
}

// InnermostSync returns the closest enclosing synchronized statement, or nil.
func (l *Location) InnermostSync() *Sync {
	syncs := l.EnclosingSyncs()
	if len(syncs) == 0 {
		return nil
	}
	return syncs[len(syncs)-1]
}

// LoopDepth returns how many loops enclose the location.
func (l *Location) LoopDepth() int {
	n := 0
	for _, s := range l.Enclosing {
		switch s.(type) {
		case *For, *While:
			n++
		}
	}
	return n
}

// Find locates the statement with the given ID anywhere in the program.
// It returns nil if no statement has that ID.
func Find(p *Program, id int) *Location {
	var path []Stmt
	for _, cl := range p.Classes {
		for _, m := range cl.Methods {
			if loc := findInBlock(m.Body, id, &path); loc != nil {
				loc.Class, loc.Method = cl, m
				return loc
			}
		}
	}
	return nil
}

// findInBlock searches b for the statement with the given ID. path
// holds the statements enclosing b, outermost first; the search pushes
// onto it and pops what it pushed, and copies it only into the
// Location it returns.
func findInBlock(b *Block, id int, path *[]Stmt) *Location {
	if b == nil {
		return nil
	}
	*path = append(*path, b)
	defer func() { *path = (*path)[:len(*path)-1] }()
	for i, s := range b.Stmts {
		if s.ID() == id {
			return &Location{Parent: b, Index: i, Enclosing: slices.Clone(*path), Stmt: s}
		}
		var loc *Location
		switch n := s.(type) {
		case *Block:
			loc = findInBlock(n, id, path)
		case *If:
			loc = findInBranches(s, id, path, n.Then, n.Else)
		case *For:
			loc = findInBranches(s, id, path, n.Body)
		case *While:
			loc = findInBranches(s, id, path, n.Body)
		case *Sync:
			loc = findInBranches(s, id, path, n.Body)
		case *Try:
			loc = findInBranches(s, id, path, n.Body, n.Catch)
		}
		if loc != nil {
			return loc
		}
	}
	return nil
}

// findInBranches searches the blocks of compound statement s in order,
// with s on the enclosing path.
func findInBranches(s Stmt, id int, path *[]Stmt, blocks ...*Block) *Location {
	*path = append(*path, s)
	defer func() { *path = (*path)[:len(*path)-1] }()
	for _, b := range blocks {
		if loc := findInBlock(b, id, path); loc != nil {
			return loc
		}
	}
	return nil
}

// InsertBefore inserts stmt directly before the located statement.
func (l *Location) InsertBefore(s Stmt) {
	l.Parent.Stmts = append(l.Parent.Stmts, nil)
	copy(l.Parent.Stmts[l.Index+1:], l.Parent.Stmts[l.Index:])
	l.Parent.Stmts[l.Index] = s
	l.Index++
}

// InsertAfter inserts stmt directly after the located statement.
func (l *Location) InsertAfter(s Stmt) {
	i := l.Index + 1
	l.Parent.Stmts = append(l.Parent.Stmts, nil)
	copy(l.Parent.Stmts[i+1:], l.Parent.Stmts[i:])
	l.Parent.Stmts[i] = s
}

// Replace substitutes the located statement with s.
func (l *Location) Replace(s Stmt) {
	l.Parent.Stmts[l.Index] = s
	l.Stmt = s
}

// Remove deletes the located statement from its parent block.
func (l *Location) Remove() {
	copy(l.Parent.Stmts[l.Index:], l.Parent.Stmts[l.Index+1:])
	l.Parent.Stmts = l.Parent.Stmts[:len(l.Parent.Stmts)-1]
}

// Statements returns every statement in the program in source order,
// paired with its owning class and method. Block statements themselves
// are included (they are valid mutation points per the paper's "any
// statement" selection, though the default selector skips them).
func Statements(p *Program) []*Location {
	var out []*Location
	for _, cl := range p.Classes {
		for _, m := range cl.Methods {
			collectBlock(m.Body, nil, cl, m, &out)
		}
	}
	return out
}

func collectBlock(b *Block, enclosing []Stmt, cl *Class, m *Method, out *[]*Location) {
	if b == nil {
		return
	}
	enc := append(append([]Stmt(nil), enclosing...), b)
	for i, s := range b.Stmts {
		*out = append(*out, &Location{Class: cl, Method: m, Parent: b, Index: i, Enclosing: enc, Stmt: s})
		switch n := s.(type) {
		case *Block:
			collectBlock(n, enc, cl, m, out)
		case *If:
			collectBlock(n.Then, append(enc, s), cl, m, out)
			collectBlock(n.Else, append(enc, s), cl, m, out)
		case *For:
			collectBlock(n.Body, append(enc, s), cl, m, out)
		case *While:
			collectBlock(n.Body, append(enc, s), cl, m, out)
		case *Sync:
			collectBlock(n.Body, append(enc, s), cl, m, out)
		case *Try:
			collectBlock(n.Body, append(enc, s), cl, m, out)
			collectBlock(n.Catch, append(enc, s), cl, m, out)
		}
	}
}

// CountStmts returns the number of statements in the program (excluding
// method-body blocks themselves but including nested blocks).
func CountStmts(p *Program) int {
	n := 0
	for _, cl := range p.Classes {
		for _, m := range cl.Methods {
			WalkStmts(m.Body, func(Stmt) bool { n++; return true })
			n-- // don't count the body block itself
		}
	}
	return n
}

// FreshVar returns a variable name of the form prefixN that does not
// collide with any name used in the method (params, locals, loop vars,
// catch vars).
func FreshVar(m *Method, prefix string) string {
	used := map[string]bool{}
	for _, p := range m.Params {
		used[p.Name] = true
	}
	WalkStmts(m.Body, func(s Stmt) bool {
		switch n := s.(type) {
		case *VarDecl:
			used[n.Name] = true
		case *For:
			used[n.Var] = true
		case *Try:
			used[n.CatchVar] = true
		}
		return true
	})
	for i := 0; ; i++ {
		name := prefix + itoa(i)
		if !used[name] {
			return name
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// FreshMethod returns a method name of the form prefixN unused in the class.
func FreshMethod(c *Class, prefix string) string {
	used := map[string]bool{}
	for _, m := range c.Methods {
		used[m.Name] = true
	}
	for i := 0; ; i++ {
		name := prefix + itoa(i)
		if !used[name] {
			return name
		}
	}
}

// LocalsInScope returns the names and types of variables visible at the
// location, in declaration order: method params, then locals declared in
// enclosing blocks before the statement, loop variables, and catch vars.
func (l *Location) LocalsInScope() []Param {
	var out []Param
	if !l.Method.Static {
		out = append(out, Param{Name: "this", Ty: ObjectType(l.Class.Name)})
	}
	out = append(out, l.Method.Params...)
	// Walk the enclosing chain; in each block, take declarations that
	// appear before the child we descend into.
	chain := append(append([]Stmt(nil), l.Enclosing...), l.Stmt)
	for idx, s := range chain[:len(chain)-1] {
		child := chain[idx+1]
		switch n := s.(type) {
		case *Block:
			for _, bs := range n.Stmts {
				// Stop at the statement containing (or being) the child:
				// its own declaration is not in scope before it runs.
				if bs.ID() == child.ID() || containsStmt(bs, child.ID()) {
					break
				}
				if vd, ok := bs.(*VarDecl); ok {
					out = append(out, Param{Name: vd.Name, Ty: vd.Ty})
				}
			}
		case *For:
			out = append(out, Param{Name: n.Var, Ty: Int})
		case *Try:
			if blockContains(n.Catch, child.ID()) {
				out = append(out, Param{Name: n.CatchVar, Ty: Int})
			}
		}
	}
	return out
}

func containsStmt(s Stmt, id int) bool {
	found := false
	WalkStmts(s, func(st Stmt) bool {
		if st.ID() == id {
			found = true
		}
		return !found
	})
	return found
}

func blockContains(b *Block, id int) bool {
	if b == nil {
		return false
	}
	return containsStmt(b, id)
}
