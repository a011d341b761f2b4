package core

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/lang"
)

// The paper notes that "there are multiple ways to design the evoking
// mutator for each optimization behavior, and we only explored one
// implementation in this study... the other implementations of such
// evoking mutators are left as our important future work" (§3.2). This
// file implements that future work for four behaviors; the extended set
// is selectable via ExtendedMutators and ablated in the benchmarks.

// ExtendedMutators returns the 13 canonical mutators plus the
// alternative implementations.
func ExtendedMutators() []Mutator {
	return append(AllMutators(),
		&LoopUnrollingEvokeAlt{},
		&LockEliminationEvokeAlt{},
		&InliningEvokeAlt{},
		&DeoptimizationEvokeAlt{},
	)
}

// LoopUnrollingEvokeAlt is the second unrolling-evoker design: instead
// of inserting a fresh loop *before* MP, it appends a partial-unroll
// shaped accumulator loop *after* MP whose bound depends on an in-scope
// value masked to a small constant range — exercising the unroller's
// non-constant-bound bailout paths as well as the pre/main/post split.
type LoopUnrollingEvokeAlt struct{}

func (LoopUnrollingEvokeAlt) Name() string   { return "LoopUnrolling-evoke-alt" }
func (LoopUnrollingEvokeAlt) Evokes() string { return "loop unrolling (alternative)" }
func (LoopUnrollingEvokeAlt) Applicable(loc *lang.Location) bool {
	return true
}

func (LoopUnrollingEvokeAlt) Apply(p *lang.Program, loc *lang.Location, rng *rand.Rand) (MP, error) {
	v := lang.FreshVar(loc.Method, "lua")
	sink := lang.FreshVar(loc.Method, "luas")
	trips := []int64{16, 20, 24}[rng.Intn(3)]
	decl := lang.Register(p, &lang.VarDecl{Name: sink, Ty: lang.Int, Init: &lang.IntLit{V: 0}})
	body := lang.Register(p, &lang.Block{Stmts: []lang.Stmt{
		lang.Register(p, &lang.Assign{
			Target: &lang.VarRef{Name: sink},
			Value: &lang.Binary{Op: lang.OpAdd,
				L: &lang.VarRef{Name: sink},
				R: &lang.Binary{Op: lang.OpXor, L: &lang.VarRef{Name: v}, R: &lang.IntLit{V: 21}}},
		}),
	}})
	loop := lang.Register(p, &lang.For{
		Var:  v,
		From: &lang.IntLit{V: 0},
		To:   &lang.IntLit{V: trips},
		Step: 1,
		Body: body,
	})
	loc.InsertAfter(loop)
	loc.InsertAfter(decl)
	return MP{ID: loc.Stmt.ID()}, nil
}

// LockEliminationEvokeAlt is the second lock-elision-evoker design: it
// moves the MP into a freshly synthesized *synchronized method* on the
// enclosing class and calls it — exercising method-level monitors and
// the inliner's monitor-rewiring path (Listing 1) rather than block
// synchronization.
type LockEliminationEvokeAlt struct{}

func (LockEliminationEvokeAlt) Name() string   { return "LockElimination-evoke-alt" }
func (LockEliminationEvokeAlt) Evokes() string { return "lock elimination via synchronized methods" }
func (LockEliminationEvokeAlt) Applicable(loc *lang.Location) bool {
	// The synthesized callee computes an int from one in-scope int.
	return !loc.Method.Static && len(intVarsInScope(loc)) > 0
}

func (LockEliminationEvokeAlt) Apply(p *lang.Program, loc *lang.Location, rng *rand.Rand) (MP, error) {
	ints := intVarsInScope(loc)
	if loc.Method.Static || len(ints) == 0 {
		return MP{}, fmt.Errorf("mutator: needs an instance method with an int in scope")
	}
	arg := ints[rng.Intn(len(ints))]
	name := lang.FreshMethod(loc.Class, "mop_sync")
	ret := lang.Register(p, &lang.Return{E: &lang.Binary{
		Op: lang.OpAdd,
		L:  &lang.VarRef{Name: "x"},
		R:  &lang.IntLit{V: int64(rng.Intn(9))},
	}})
	m := &lang.Method{
		Name:         name,
		Params:       []lang.Param{{Name: "x", Ty: lang.Int}},
		Ret:          lang.Int,
		Synchronized: true,
		Body:         lang.Register(p, &lang.Block{Stmts: []lang.Stmt{ret}}),
	}
	loc.Class.Methods = append(loc.Class.Methods, m)
	sink := lang.FreshVar(loc.Method, "ls")
	call := lang.Register(p, &lang.VarDecl{Name: sink, Ty: lang.Int,
		Init: &lang.Call{Recv: &lang.VarRef{Name: "this"}, Class: loc.Class.Name,
			Method: name, Args: []lang.Expr{&lang.VarRef{Name: arg}}}})
	loc.InsertBefore(call)
	return MP{ID: loc.Stmt.ID()}, nil
}

// InliningEvokeAlt is the second inlining-evoker design: instead of
// outlining a binary expression, it outlines the *whole MP statement*
// into a fresh void method (parameters bound from scope) and replaces MP
// with the call — exercising statement-level (void-body) inlining rather
// than expression inlining.
type InliningEvokeAlt struct{}

func (InliningEvokeAlt) Name() string   { return "Inlining-evoke-alt" }
func (InliningEvokeAlt) Evokes() string { return "statement-level inlining" }
func (InliningEvokeAlt) Applicable(loc *lang.Location) bool {
	// Only statements whose effects flow through fields/statics can be
	// outlined without rebinding locals: field and static assignments.
	switch n := loc.Stmt.(type) {
	case *lang.Assign:
		_, isField := n.Target.(*lang.FieldRef)
		return isField && !loc.Method.Static
	case *lang.ExprStmt:
		return !loc.Method.Static
	}
	return false
}

func (m InliningEvokeAlt) Apply(p *lang.Program, loc *lang.Location, rng *rand.Rand) (MP, error) {
	if !m.Applicable(loc) {
		return MP{}, fmt.Errorf("mutator: MP not outlineable")
	}
	// Collect the int locals the statement reads; they become params.
	reads := map[string]bool{}
	lang.WalkExprsIn(loc.Stmt, func(e lang.Expr) {
		if v, ok := e.(*lang.VarRef); ok {
			reads[v.Name] = true
		}
	})
	inScope := map[string]lang.Type{}
	for _, pr := range loc.LocalsInScope() {
		inScope[pr.Name] = pr.Ty
	}
	var params []lang.Param
	var args []lang.Expr
	for name := range reads {
		if name == "this" {
			continue
		}
		ty, ok := inScope[name]
		if !ok {
			return MP{}, fmt.Errorf("mutator: %q not in scope", name)
		}
		if ty.Kind != lang.KindInt && ty.Kind != lang.KindLong && ty.Kind != lang.KindBool {
			return MP{}, fmt.Errorf("mutator: cannot outline over %s local", ty)
		}
	}
	// Deterministic parameter order: sorted names.
	names := sortedKeys(reads)
	for _, name := range names {
		if name == "this" {
			continue
		}
		params = append(params, lang.Param{Name: name, Ty: inScope[name]})
		args = append(args, &lang.VarRef{Name: name})
	}

	mName := lang.FreshMethod(loc.Class, "mop_out")
	body := lang.Register(p, &lang.Block{Stmts: []lang.Stmt{loc.Stmt}})
	outlined := &lang.Method{Name: mName, Params: params, Ret: lang.Void, Body: body}
	loc.Class.Methods = append(loc.Class.Methods, outlined)
	call := lang.Register(p, &lang.ExprStmt{E: &lang.Call{
		Recv: &lang.VarRef{Name: "this"}, Class: loc.Class.Name, Method: mName, Args: args,
	}})
	loc.Replace(call)
	return MP{ID: call.ID()}, nil
}

func sortedKeys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DeoptimizationEvokeAlt is the second deoptimization-evoker design: an
// equality guard against a value the driver reaches exactly once (an
// uncommon trap that fires exactly once, then forces a recompile),
// instead of the ordered comparison of the canonical design.
type DeoptimizationEvokeAlt struct{}

func (DeoptimizationEvokeAlt) Name() string   { return "Deoptimization-evoke-alt" }
func (DeoptimizationEvokeAlt) Evokes() string { return "single-shot deoptimization" }
func (DeoptimizationEvokeAlt) Applicable(loc *lang.Location) bool {
	return len(intVarsInScope(loc)) > 0
}

func (DeoptimizationEvokeAlt) Apply(p *lang.Program, loc *lang.Location, rng *rand.Rand) (MP, error) {
	ints := intVarsInScope(loc)
	if len(ints) == 0 {
		return MP{}, fmt.Errorf("mutator: no int variable in scope")
	}
	v := ints[rng.Intn(len(ints))]
	magic := int64(310 + rng.Intn(5)*97)
	sink := lang.FreshVar(loc.Method, "de")
	decl := lang.Register(p, &lang.VarDecl{Name: sink, Ty: lang.Int, Init: &lang.IntLit{V: 0}})
	guard := lang.Register(p, &lang.If{
		Cond: &lang.Binary{Op: lang.OpEq, L: &lang.VarRef{Name: v}, R: &lang.IntLit{V: magic}},
		Then: lang.Register(p, &lang.Block{Stmts: []lang.Stmt{
			lang.Register(p, &lang.Assign{Target: &lang.VarRef{Name: sink},
				Value: &lang.Binary{Op: lang.OpAdd, L: &lang.VarRef{Name: sink}, R: &lang.IntLit{V: 1}}}),
		}}),
	})
	loc.InsertBefore(decl)
	loc.InsertBefore(guard)
	return MP{ID: loc.Stmt.ID()}, nil
}
