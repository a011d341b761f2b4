package jit

import (
	"fmt"
	"strings"

	"repro/internal/lang"
)

// Dump renders a function's IR as an indented tree, with provenance
// annotations — the debugging view of what the optimizer did. Pass
// pipelines are easiest to diagnose by diffing Dump output before and
// after a pass (see the golden tests in passes_golden_test.go).
func Dump(f *Func) string {
	var b strings.Builder
	mods := ""
	if f.Synchronized {
		mods = "synchronized "
	}
	fmt.Fprintf(&b, "%sfunc %s(", mods, f.Key())
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", p.Ty, p.Name)
	}
	fmt.Fprintf(&b, ") %s\n", f.Ret)
	dumpNode(&b, f.Body, 1)
	return b.String()
}

func dumpNode(b *strings.Builder, n *Node, depth int) {
	if n == nil {
		return
	}
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(describe(n))
	if n.Prov != 0 {
		fmt.Fprintf(b, "  <%s>", provString(n.Prov))
	}
	if n.NoExcCleanup {
		b.WriteString("  !no-exc-cleanup")
	}
	b.WriteString("\n")
	for _, k := range n.Kids {
		dumpNode(b, k, depth+1)
	}
}

func describe(n *Node) string {
	switch n.Kind {
	case NDecl:
		return fmt.Sprintf("decl %s %s", n.Ty, n.Name)
	case NAssignVar:
		return "assign " + n.Name
	case NAssignField:
		if n.Static {
			return fmt.Sprintf("putstatic %s.%s", n.Class, n.Name)
		}
		return fmt.Sprintf("putfield .%s", n.Name)
	case NFor:
		return fmt.Sprintf("for %s step %d", n.Name, n.Step)
	case NTry:
		return "try catch(" + n.Name + ")"
	case NUncommonTrap:
		return "uncommon_trap " + n.Name
	case NConstInt:
		if n.IsLong {
			return fmt.Sprintf("const %dL", n.IVal)
		}
		return fmt.Sprintf("const %d", n.IVal)
	case NConstBool:
		return fmt.Sprintf("const %v", n.IVal != 0)
	case NConstStr:
		return fmt.Sprintf("const %q", n.SVal)
	case NVar:
		return "var " + n.Name
	case NFieldGet:
		if n.Static {
			return fmt.Sprintf("getstatic %s.%s", n.Class, n.Name)
		}
		return fmt.Sprintf("getfield .%s", n.Name)
	case NBinary:
		return "binary " + n.BinOp.String()
	case NUnary:
		return "unary " + n.UnOp.String()
	case NCall:
		return fmt.Sprintf("call %s.%s", n.Class, n.Name)
	case NReflectCall:
		return fmt.Sprintf("reflect_call %s.%s", n.Class, n.Name)
	case NReflectGet:
		return fmt.Sprintf("reflect_get %s.%s", n.Class, n.Name)
	case NNew:
		return "new " + n.Class
	default:
		return n.Kind.String()
	}
}

var provNames = []struct {
	bit  Prov
	name string
}{
	{FromUnroll, "unroll"},
	{FromPeel, "peel"},
	{FromUnswitch, "unswitch"},
	{FromPreMainPost, "premainpost"},
	{FromInline, "inline"},
	{FromInlineSync, "inline-sync"},
	{FromCoarsen, "coarsen"},
	{FromScalarReplace, "scalar"},
	{FromDereflect, "dereflect"},
	{FromAutoboxElim, "autobox"},
	{FromGVN, "gvn"},
	{FromAlgebraic, "algebra"},
}

func provString(p Prov) string {
	var parts []string
	for _, pn := range provNames {
		if p.Has(pn.bit) {
			parts = append(parts, pn.name)
		}
	}
	return strings.Join(parts, ",")
}

// LowerProgramFunc lowers one method of a checked program by name
// (convenience for tests and tools: "T.work").
func LowerProgramFunc(p *lang.Program, key string) (*Func, error) {
	for _, cl := range p.Classes {
		for _, m := range cl.Methods {
			if cl.Name+"."+m.Name == key {
				return Lower(cl, m)
			}
		}
	}
	return nil, fmt.Errorf("jit: no method %q", key)
}
