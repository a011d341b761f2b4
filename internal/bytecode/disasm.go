package bytecode

import (
	"fmt"
	"strings"
)

// Disassemble renders a function as a human-readable listing.
func Disassemble(f *Function) string {
	var b strings.Builder
	mods := ""
	if f.Synchronized {
		mods = "synchronized "
	}
	fmt.Fprintf(&b, "%s%s.%s  (params=%d locals=%d stack=%d void=%v)\n", mods, f.Class, f.Name, f.NParams, f.NLocals, f.MaxStack, f.Void)
	for pc, ins := range f.Code {
		fmt.Fprintf(&b, "  %4d: %-14s", pc, ins.Op)
		switch ins.Op {
		case Const:
			suffix := ""
			if ins.B == 1 {
				suffix = "L"
			}
			fmt.Fprintf(&b, "%d%s", f.Ints[ins.A], suffix)
		case ConstStr:
			fmt.Fprintf(&b, "%q", f.Strs[ins.A])
		case ConstBool:
			fmt.Fprintf(&b, "%v", ins.A != 0)
		case Load, Store:
			fmt.Fprintf(&b, "slot %d", ins.A)
		case Jump, JumpIfFalse, JumpIfTrue:
			fmt.Fprintf(&b, "-> %d", ins.A)
		case Invoke, InvokeReflect:
			fmt.Fprintf(&b, "%s", f.Methods[ins.A])
		case GetField, PutField, GetStatic, PutStatic, ReflectGetF:
			fmt.Fprintf(&b, "%s", f.Fields[ins.A])
		case NewObj:
			fmt.Fprintf(&b, "%s", f.Classes[ins.A])
		}
		if ins.Block != 0 {
			fmt.Fprintf(&b, "  ; block %d", ins.Block)
		}
		if ins.Fused != Nop {
			fmt.Fprintf(&b, "  ; fused %s", ins.Fused)
		}
		b.WriteString("\n")
	}
	for _, ex := range f.ExTable {
		fmt.Fprintf(&b, "  try [%d,%d) -> handler %d (slot %d, mondepth %d)\n",
			ex.Start, ex.End, ex.Handler, ex.CatchSlot, ex.MonDepth)
	}
	return b.String()
}

// DisassembleImage renders every function in the image.
func DisassembleImage(img *Image) string {
	var b strings.Builder
	for _, c := range img.Classes {
		for _, f := range c.Funcs {
			b.WriteString(Disassemble(f))
			b.WriteString("\n")
		}
	}
	return b.String()
}
