package lang

import (
	"slices"
	"strings"
	"testing"
)

const seedSrc = `
class T {
  int f;
  static int sf;
  static void main() {
    T t = new T();
    t.f = 7;
    int acc = 0;
    for (int i = 0; i < 100; i += 1) {
      acc = acc + t.foo(i);
    }
    print(acc);
  }
  int foo(int i) {
    int m = i + this.f;
    return m;
  }
}
`

func mustChecked(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := Check(p); err != nil {
		t.Fatalf("Check: %v", err)
	}
	return p
}

func TestParseSeed(t *testing.T) {
	p := mustChecked(t, seedSrc)
	if p.EntryClass != "T" {
		t.Errorf("EntryClass = %q, want T", p.EntryClass)
	}
	c := p.Class("T")
	if c == nil {
		t.Fatal("class T missing")
	}
	if got := len(c.Methods); got != 2 {
		t.Errorf("len(Methods) = %d, want 2", got)
	}
	if got := len(c.Fields); got != 2 {
		t.Errorf("len(Fields) = %d, want 2", got)
	}
	if !c.FieldByName("sf").Static {
		t.Error("sf should be static")
	}
	if c.FieldByName("f").Static {
		t.Error("f should not be static")
	}
	m := c.Method("main")
	if !m.Static || m.Ret.Kind != KindVoid {
		t.Errorf("main = static %v ret %v", m.Static, m.Ret)
	}
}

func TestRoundTrip(t *testing.T) {
	p := mustChecked(t, seedSrc)
	src1 := Format(p)
	p2, err := Parse(src1)
	if err != nil {
		t.Fatalf("reparse: %v\nsource:\n%s", err, src1)
	}
	if err := Check(p2); err != nil {
		t.Fatalf("recheck: %v", err)
	}
	src2 := Format(p2)
	if src1 != src2 {
		t.Errorf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", src1, src2)
	}
}

func TestRoundTripAllConstructs(t *testing.T) {
	src := `
class U {
  int g;
  static void main() {
    U u = new U();
    int[] a = new int[10];
    a[3] = 5;
    Integer bx = Integer.valueOf(a[3] + 1);
    int ub = bx.intValue();
    long l = 12L;
    l = l + ub;
    boolean b = true;
    if (b && ub > 2) {
      print(l);
    } else {
      print(0);
    }
    while (ub > 0) {
      ub = ub - 1;
    }
    synchronized (u) {
      u.g = 1;
    }
    try {
      throw 42;
    } catch (e) {
      print(e);
    }
    int r = reflect_invoke("U", "twice", u, 4);
    int fg = reflect_get("U", "g", u);
    int tern = b ? r : fg;
    print(-tern + ~fg);
  }
  int twice(int x) { return x * 2; }
}
`
	p := mustChecked(t, src)
	s1 := Format(p)
	p2, err := Parse(s1)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, s1)
	}
	if err := Check(p2); err != nil {
		t.Fatalf("recheck: %v\n%s", err, s1)
	}
	if s2 := Format(p2); s1 != s2 {
		t.Errorf("round trip differs:\n%s\nvs\n%s", s1, s2)
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undefined var", `class T { static void main() { print(x); } }`, "undefined variable"},
		{"bad assign", `class T { static void main() { boolean b = 1; } }`, "cannot initialize"},
		{"unknown method", `class T { static void main() { T.nope(); } }`, "unknown method"},
		{"unknown field", `class T { static void main() { T t = new T(); t.f = 1; } }`, "unknown field"},
		{"bad arity", `class T { static void main() { T.foo(1, 2); } static void foo(int x) { return; } }`, "args"},
		{"non-bool if", `class T { static void main() { if (1) { return; } } }`, "boolean"},
		{"sync on int", `class T { static void main() { int x = 1; synchronized (x) { return; } } }`, "reference"},
		{"no main", `class T { int foo() { return 1; } }`, "no static main"},
		{"instance static call", `class T { static void main() { T.inst(); } void inst() { return; } }`, "called statically"},
		{"reflect unknown", `class T { static void main() { int x = reflect_invoke("T", "gone", null); print(x); } }`, "unknown method"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Parse(tc.src)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			err = Check(p)
			if err == nil {
				t.Fatalf("Check passed, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Check error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestStmtIDsUnique(t *testing.T) {
	p := mustChecked(t, seedSrc)
	seen := map[int]bool{}
	for _, cl := range p.Classes {
		for _, m := range cl.Methods {
			WalkStmts(m.Body, func(s Stmt) bool {
				if s.ID() == 0 {
					t.Errorf("statement %T has zero ID", s)
				}
				if seen[s.ID()] {
					t.Errorf("duplicate statement ID %d", s.ID())
				}
				seen[s.ID()] = true
				return true
			})
		}
	}
}

func TestFindAndLocation(t *testing.T) {
	p := mustChecked(t, seedSrc)
	locs := Statements(p)
	if len(locs) == 0 {
		t.Fatal("no statements")
	}
	for _, loc := range locs {
		got := Find(p, loc.Stmt.ID())
		if got == nil {
			t.Fatalf("Find(%d) = nil", loc.Stmt.ID())
		}
		if got.Stmt.ID() != loc.Stmt.ID() {
			t.Errorf("Find(%d) located %d", loc.Stmt.ID(), got.Stmt.ID())
		}
		if got.Method == nil || got.Class == nil {
			t.Errorf("Find(%d): missing class/method", loc.Stmt.ID())
		}
		if got.Parent != loc.Parent || got.Index != loc.Index || !slices.Equal(got.Enclosing, loc.Enclosing) {
			t.Errorf("Find(%d): parent, index or enclosing path differ from Statements'", loc.Stmt.ID())
		}
	}
	if Find(p, 999999) != nil {
		t.Error("Find of bogus ID should be nil")
	}
}

func TestInsertBeforeAfterReplace(t *testing.T) {
	p := mustChecked(t, seedSrc)
	// Locate the assignment acc = acc + t.foo(i) inside the loop.
	var target *Location
	for _, loc := range Statements(p) {
		if a, ok := loc.Stmt.(*Assign); ok {
			if vr, ok := a.Target.(*VarRef); ok && vr.Name == "acc" {
				target = loc
			}
		}
	}
	if target == nil {
		t.Fatal("mutation point not found")
	}
	if target.LoopDepth() != 1 {
		t.Errorf("LoopDepth = %d, want 1", target.LoopDepth())
	}
	before := Register(p, &Print{E: &IntLit{V: 1}})
	target.InsertBefore(before)
	after := Register(p, &Print{E: &IntLit{V: 2}})
	target.InsertAfter(after)
	// The parent block should now be print(1); assign; print(2).
	blk := target.Parent
	if len(blk.Stmts) != 3 {
		t.Fatalf("len(block) = %d, want 3", len(blk.Stmts))
	}
	if blk.Stmts[0] != before || blk.Stmts[2] != after {
		t.Error("insert order wrong")
	}
	if err := Check(p); err != nil {
		t.Fatalf("Check after mutation: %v", err)
	}
}

func TestCloneProgramIndependence(t *testing.T) {
	p := mustChecked(t, seedSrc)
	q := CloneProgram(p)
	if Format(p) != Format(q) {
		t.Fatal("clone formats differently")
	}
	// Mutating the clone must not affect the original.
	loc := Statements(q)[0]
	loc.InsertBefore(Register(q, &Print{E: &IntLit{V: 99}}))
	if Format(p) == Format(q) {
		t.Error("mutation leaked between clone and original")
	}
	// IDs preserved: every statement ID of p exists in q's original stmts.
	for _, l := range Statements(p) {
		if Find(q, l.Stmt.ID()) == nil {
			t.Errorf("ID %d lost in clone", l.Stmt.ID())
		}
	}
}

func TestEnclosingSyncs(t *testing.T) {
	src := `
class T {
  static void main() {
    T t = new T();
    synchronized (t) {
      synchronized (T.class_obj()) {
        print(1);
      }
    }
  }
  static T class_obj() { return new T(); }
}
`
	p := mustChecked(t, src)
	var printLoc *Location
	for _, loc := range Statements(p) {
		if _, ok := loc.Stmt.(*Print); ok {
			printLoc = loc
		}
	}
	if printLoc == nil {
		t.Fatal("print not found")
	}
	syncs := printLoc.EnclosingSyncs()
	if len(syncs) != 2 {
		t.Fatalf("EnclosingSyncs = %d, want 2", len(syncs))
	}
	if printLoc.InnermostSync() != syncs[1] {
		t.Error("InnermostSync should be the inner one")
	}
}

func TestLocalsInScope(t *testing.T) {
	p := mustChecked(t, seedSrc)
	var loc *Location
	for _, l := range Statements(p) {
		if a, ok := l.Stmt.(*Assign); ok {
			if vr, ok := a.Target.(*VarRef); ok && vr.Name == "acc" {
				loc = l
			}
		}
	}
	if loc == nil {
		t.Fatal("mutation point not found")
	}
	names := map[string]Type{}
	for _, pr := range loc.LocalsInScope() {
		names[pr.Name] = pr.Ty
	}
	for _, want := range []string{"t", "acc", "i"} {
		if _, ok := names[want]; !ok {
			t.Errorf("LocalsInScope missing %q (got %v)", want, names)
		}
	}
	if names["i"] != Int {
		t.Errorf("loop var i has type %v", names["i"])
	}
	if _, ok := names["this"]; ok {
		t.Error("static method should not see this")
	}
}

func TestFreshVarAndMethod(t *testing.T) {
	p := mustChecked(t, seedSrc)
	c := p.Class("T")
	m := c.Method("main")
	v := FreshVar(m, "acc")
	if v == "acc" {
		t.Error("FreshVar returned a used name")
	}
	if v != "acc0" {
		t.Errorf("FreshVar = %q, want acc0", v)
	}
	if got := FreshMethod(c, "foo"); got != "foo0" {
		t.Errorf("FreshMethod = %q, want foo0", got)
	}
	if got := FreshMethod(c, "main"); got != "main0" {
		t.Errorf("FreshMethod = %q, want main0", got)
	}
}

func TestReassignIDs(t *testing.T) {
	p := mustChecked(t, seedSrc)
	_, m := p.Entry()
	clone := CloneBlock(m.Body)
	ReassignIDs(p, clone)
	ids := map[int]bool{}
	WalkStmts(m.Body, func(s Stmt) bool { ids[s.ID()] = true; return true })
	WalkStmts(clone, func(s Stmt) bool {
		if ids[s.ID()] {
			t.Errorf("clone shares ID %d with original", s.ID())
		}
		return true
	})
}

func TestCloneExprDeep(t *testing.T) {
	e := &Binary{Op: OpAdd, L: &VarRef{Name: "a"}, R: &Call{Class: "T", Method: "f", Args: []Expr{&IntLit{V: 1}}}}
	c := CloneExpr(e).(*Binary)
	c.L.(*VarRef).Name = "zzz"
	if e.L.(*VarRef).Name != "a" {
		t.Error("CloneExpr is shallow")
	}
	if FormatExpr(e) == FormatExpr(c) {
		t.Error("mutation did not change clone format")
	}
}

func TestCountStmts(t *testing.T) {
	p := mustChecked(t, `class T { static void main() { print(1); print(2); } }`)
	if n := CountStmts(p); n != 2 {
		t.Errorf("CountStmts = %d, want 2", n)
	}
}

func TestParseExprString(t *testing.T) {
	e, err := ParseExprString("(a + T.f(b))", []string{"T"})
	if err != nil {
		t.Fatalf("ParseExprString: %v", err)
	}
	b, ok := e.(*Binary)
	if !ok || b.Op != OpAdd {
		t.Fatalf("parsed %T, want *Binary add", e)
	}
	if _, err := ParseExprString("a +", nil); err == nil {
		t.Error("want error for truncated expression")
	}
	if _, err := ParseExprString("a b", nil); err == nil {
		t.Error("want error for trailing input")
	}
}

func TestFormatExprStable(t *testing.T) {
	cases := []string{
		"(a + (b * c))",
		"Integer.valueOf((x + 1))",
		"bx.intValue()",
		`reflect_invoke("T", "f", t, 1)`,
		`reflect_get("T", "g", t)`,
		"new T()",
		"new int[8]",
		"arr[(i + 1)]",
		"(b ? 1 : 0)",
	}
	for _, src := range cases {
		e, err := ParseExprString(src, []string{"T"})
		if err != nil {
			t.Errorf("parse %q: %v", src, err)
			continue
		}
		if got := FormatExpr(e); got != src {
			t.Errorf("FormatExpr = %q, want %q", got, src)
		}
	}
}

func TestWalkExprOrder(t *testing.T) {
	e, err := ParseExprString("(a + (b * c))", nil)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	WalkExpr(e, func(x Expr) {
		if v, ok := x.(*VarRef); ok {
			names = append(names, v.Name)
		}
	})
	if strings.Join(names, "") != "abc" {
		t.Errorf("walk order = %v", names)
	}
}

func TestSyncIDs(t *testing.T) {
	p := mustChecked(t, seedSrc)
	max := p.MaxID()
	p2 := &Program{Classes: p.Classes, EntryClass: p.EntryClass}
	p2.SyncIDs()
	if p2.MaxID() != max {
		t.Errorf("SyncIDs: MaxID = %d, want %d", p2.MaxID(), max)
	}
	if id := p2.NewID(); id != max+1 {
		t.Errorf("NewID after SyncIDs = %d, want %d", id, max+1)
	}
}

func TestMissingReturnRejected(t *testing.T) {
	cases := []struct {
		name string
		src  string
		ok   bool
	}{
		{"falls off end", `class T { static void main() { print(T.f()); } static int f() { int x = 1; } }`, false},
		{"returns in both arms", `class T { static void main() { print(T.f(1)); }
			static int f(int x) { if (x > 0) { return 1; } else { return 2; } } }`, true},
		{"returns in one arm only", `class T { static void main() { print(T.f(1)); }
			static int f(int x) { if (x > 0) { return 1; } } }`, false},
		{"throw counts as exit", `class T { static void main() { print(T.f(1)); }
			static int f(int x) { throw 3; } }`, true},
		{"try needs both paths", `class T { static void main() { print(T.f(1)); }
			static int f(int x) { try { return 1; } catch (e) { print(e); } } }`, false},
		{"loop does not guarantee exit", `class T { static void main() { print(T.f(1)); }
			static int f(int x) { for (int i = 0; i < 10; i += 1) { return i; } } }`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			err = Check(p)
			if tc.ok && err != nil {
				t.Errorf("Check = %v, want ok", err)
			}
			if !tc.ok && (err == nil || !strings.Contains(err.Error(), "missing return")) {
				t.Errorf("Check = %v, want missing-return error", err)
			}
		})
	}
}

func TestWidenInsertedAndRoundTrips(t *testing.T) {
	p := mustChecked(t, `class T {
		static void main() {
			long l = 5;
			l = l + 1;
			print(T.lf(3));
		}
		static long lf(int x) { return x; }
	}`)
	src := Format(p)
	if !strings.Contains(src, "(long)(") {
		t.Errorf("no widen cast in formatted source:\n%s", src)
	}
	p2, err := Parse(src)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, src)
	}
	if err := Check(p2); err != nil {
		t.Fatalf("recheck: %v", err)
	}
	if Format(p2) != src {
		t.Error("widen round trip unstable")
	}
}

func TestCheckIdempotentOnWiden(t *testing.T) {
	p := mustChecked(t, `class T { static void main() { long l = 7; print(l); } }`)
	first := Format(p)
	if err := Check(p); err != nil {
		t.Fatalf("second Check: %v", err)
	}
	if Format(p) != first {
		t.Error("re-checking wrapped Widen twice")
	}
}

// TestParseTruncatedRejected: programs cut off right after a keyword or
// name are parse errors, not panics (found by FuzzJobSpec, whose seed
// vetting parses user sources).
func TestParseTruncatedRejected(t *testing.T) {
	for _, src := range []string{"class", "class T { int", "class T { static void main(int"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want an error", src)
		}
	}
}
