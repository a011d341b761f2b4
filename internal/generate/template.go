package generate

import (
	"fmt"
	"math/rand"

	"repro/internal/corpus"
	"repro/internal/lang"
)

// StmtFiller fills a statement hole at loc inside p, returning whether
// it did anything. The campaign wires the mutator stack in as fillers;
// the template generator falls back to its built-in synthesizer when
// every filler declines. A filler may leave the program ill-typed — the
// generator re-checks after every fill and reverts bad ones.
type StmtFiller func(p *lang.Program, loc *lang.Location, rng *rand.Rand) bool

// Hole slots: which site inside the anchor statement is the hole.
const (
	slotStmt  = iota // the whole statement position
	slotInit         // VarDecl.Init
	slotValue        // Assign.Value
	slotCond         // If.Cond
	slotRet          // Return.E
)

// hole is one typed fill site, addressed by the anchor statement's ID
// (stable across CloneProgram).
type hole struct {
	stmtID int
	slot   int
	ty     lang.Type // required expression type; unused for slotStmt
}

// template is one mined program with its hole sites.
type template struct {
	name  string
	prog  *lang.Program // parsed, checked master copy; cloned per emission
	holes []hole
}

// TemplateGenerator mines templates from corpus seeds and minimized
// triage findings, then emits fresh seeds by re-instantiating their
// holes (Zang et al.'s template extraction, on the mini-Java AST).
type TemplateGenerator struct {
	templates []template
	fillers   []StmtFiller
}

// NewTemplateGenerator mines sources (the campaign corpus) and extras
// (reduced programs from a triage store; unparseable entries are
// skipped — a finding minimized under an older grammar must not wedge
// the campaign). It errors if nothing usable was mined.
func NewTemplateGenerator(sources []corpus.Seed, extras []string, fillers []StmtFiller) (*TemplateGenerator, error) {
	g := &TemplateGenerator{fillers: fillers}
	for _, s := range sources {
		p, err := s.TryParse()
		if err != nil {
			return nil, fmt.Errorf("generate: template source %s: %v", s.Name, err)
		}
		g.add(s.Name, p)
	}
	for i, src := range extras {
		p, err := lang.Parse(src)
		if err != nil {
			continue
		}
		g.add(fmt.Sprintf("finding%03d", i+1), p)
	}
	if len(g.templates) == 0 {
		return nil, fmt.Errorf("generate: no usable templates (need at least one parseable source with hole sites)")
	}
	return g, nil
}

func (g *TemplateGenerator) add(name string, p *lang.Program) {
	if err := lang.Check(p); err != nil {
		return
	}
	holes := extractHoles(p)
	if len(holes) == 0 {
		return
	}
	g.templates = append(g.templates, template{name: name, prog: p, holes: holes})
}

// Templates reports how many templates were mined (for -v output and
// the determinism smoke test).
func (g *TemplateGenerator) Templates() int { return len(g.templates) }

// Holes returns the mined hole sites per template, in mining order
// (name → hole count). Deterministic: same inputs, same result.
func (g *TemplateGenerator) Holes() map[string]int {
	out := make(map[string]int, len(g.templates))
	for _, t := range g.templates {
		out[t.name] = len(t.holes)
	}
	return out
}

// extractHoles walks the checked program and records typed fill sites.
// Expression holes sit where sema pins a required type regardless of
// what fills them: initializers (the declared type), assignment values
// (the target's type), if-conditions (bool), and return values (the
// method's return type). Statement holes sit at effect-statement
// positions (Assign/ExprStmt/Print), where a replacement cannot break
// scoping or control flow. Loop bounds and monitors are never holes:
// holes must not change which loops are counted or which monitors are
// legal.
func extractHoles(p *lang.Program) []hole {
	var out []hole
	for _, loc := range lang.Statements(p) {
		switch st := loc.Stmt.(type) {
		case *lang.VarDecl:
			if exprHoleType(st.Ty) {
				out = append(out, hole{stmtID: st.ID(), slot: slotInit, ty: st.Ty})
			}
		case *lang.Assign:
			ty := st.Target.ResultType()
			if exprHoleType(ty) {
				out = append(out, hole{stmtID: st.ID(), slot: slotValue, ty: ty})
			}
			out = append(out, hole{stmtID: st.ID(), slot: slotStmt})
		case *lang.If:
			out = append(out, hole{stmtID: st.ID(), slot: slotCond, ty: lang.Bool})
		case *lang.Return:
			if st.E != nil && exprHoleType(loc.Method.Ret) {
				out = append(out, hole{stmtID: st.ID(), slot: slotRet, ty: loc.Method.Ret})
			}
		case *lang.ExprStmt, *lang.Print:
			out = append(out, hole{stmtID: loc.Stmt.ID(), slot: slotStmt})
		}
	}
	return out
}

// exprHoleType limits expression holes to the types the synthesizer
// covers.
func exprHoleType(t lang.Type) bool {
	return t == lang.Int || t == lang.Long || t == lang.Bool
}

// ID implements Generator.
func (g *TemplateGenerator) ID() string { return "template" }

// Generate implements Generator.
func (g *TemplateGenerator) Generate(campaignSeed int64, seq, n int) []corpus.Seed {
	out := make([]corpus.Seed, 0, n)
	for k := 0; k < n; k++ {
		rng := emissionRNG(g.ID(), campaignSeed, seq+k)
		t := g.templates[rng.Intn(len(g.templates))]
		out = append(out, corpus.Seed{
			Name:   fmt.Sprintf("Tpl%04d", seq+k+1),
			Source: g.instantiate(t, rng),
			Gen:    g.ID(),
		})
	}
	return out
}

// instantiate clones the template, fills 1–3 holes, and formats the
// result. Every fill is validated with lang.Check and reverted if it
// broke typing, so emissions always parse and check.
func (g *TemplateGenerator) instantiate(t template, rng *rand.Rand) string {
	clone := lang.CloneProgram(t.prog)
	nFill := 1 + rng.Intn(3)
	if nFill > len(t.holes) {
		nFill = len(t.holes)
	}
	order := rng.Perm(len(t.holes))[:nFill]
	for _, hi := range order {
		h := t.holes[hi]
		loc := lang.Find(clone, h.stmtID)
		if loc == nil {
			continue // a prior statement fill consumed the anchor
		}
		before := lang.CloneProgram(clone)
		if h.slot == slotStmt {
			g.fillStmt(clone, loc, rng)
		} else {
			fillExpr(clone, loc, h, rng)
		}
		if lang.Check(clone) != nil {
			clone = before
		}
	}
	clone.SyncIDs()
	return lang.Format(clone)
}

// fillStmt runs the filler chain, then the built-in synthesizer.
func (g *TemplateGenerator) fillStmt(p *lang.Program, loc *lang.Location, rng *rand.Rand) {
	for _, f := range g.fillers {
		if f(p, loc, rng) {
			return
		}
	}
	// Built-in: overwrite the statement with a synthesized assignment to
	// an int variable in scope.
	ints := intLocals(loc)
	if len(ints) == 0 {
		return
	}
	v := ints[rng.Intn(len(ints))]
	st := lang.Register(p, &lang.Assign{Target: &lang.VarRef{Name: v}, Value: synthExpr(rng, lang.Int, ints, 2)})
	loc.Replace(st)
}

// fillExpr overwrites the hole's expression slot with a synthesized
// expression of the required type.
func fillExpr(p *lang.Program, loc *lang.Location, h hole, rng *rand.Rand) {
	e := synthExpr(rng, h.ty, intLocals(loc), 2)
	switch st := loc.Stmt.(type) {
	case *lang.VarDecl:
		st.Init = e
	case *lang.Assign:
		st.Value = e
	case *lang.If:
		st.Cond = e
	case *lang.Return:
		st.E = e
	}
}

// intLocals lists the int-typed variables visible at loc.
func intLocals(loc *lang.Location) []string {
	var out []string
	for _, pm := range loc.LocalsInScope() {
		if pm.Ty == lang.Int {
			out = append(out, pm.Name)
		}
	}
	return out
}

// synthExpr builds a well-typed expression per sema's rules: int
// expressions from in-scope variables, literals, and non-trapping
// arithmetic (no '/', '%' — a synthesized divide-by-zero would turn
// every instantiation into an exception test); bool expressions as
// comparisons; long by widening an int expression (sema inserts the
// Widen during Check).
func synthExpr(rng *rand.Rand, ty lang.Type, ints []string, depth int) lang.Expr {
	switch ty {
	case lang.Bool:
		cmps := []lang.BinOp{lang.OpEq, lang.OpNe, lang.OpLt, lang.OpLe, lang.OpGt, lang.OpGe}
		return &lang.Binary{
			Op: cmps[rng.Intn(len(cmps))],
			L:  synthExpr(rng, lang.Int, ints, depth-1),
			R:  synthExpr(rng, lang.Int, ints, depth-1),
		}
	case lang.Long:
		return synthExpr(rng, lang.Int, ints, depth)
	default:
		if depth <= 0 || rng.Intn(3) == 0 {
			if len(ints) > 0 && rng.Intn(3) > 0 {
				return &lang.VarRef{Name: ints[rng.Intn(len(ints))]}
			}
			return &lang.IntLit{V: int64(rng.Intn(127) + 1)}
		}
		ops := []lang.BinOp{lang.OpAdd, lang.OpSub, lang.OpMul, lang.OpAnd, lang.OpOr, lang.OpXor}
		return &lang.Binary{
			Op: ops[rng.Intn(len(ops))],
			L:  synthExpr(rng, lang.Int, ints, depth-1),
			R:  synthExpr(rng, lang.Int, ints, depth-1),
		}
	}
}
