package bytecode

import (
	"fmt"
	"math"
)

// maxBlock is the most fuel an Instr.Block can describe; a run of
// instructions needing more is split into blocks of at most this much.
const maxBlock = math.MaxUint16

// linkCode fills what an interpreter needs beyond the code itself:
// MaxStack, each leader's block fuel and the superinstruction slots.
func linkCode(f *Function) error {
	maxStack, err := stackDepth(f)
	if err != nil {
		return err
	}
	f.MaxStack = maxStack
	forEachBlock(f, func(start, _, fuel int) { f.Code[start].Block = uint16(fuel) })
	for pc := range f.Code {
		f.Code[pc].Fused = fusedAt(f.Code, pc)
	}
	return nil
}

// checkLinks re-derives what linkCode fills, given the stack depth the
// verifier computed, and reports the first recorded value that differs.
func checkLinks(f *Function, maxStack int) error {
	if f.MaxStack != maxStack {
		return fmt.Errorf("max stack %d, want %d", f.MaxStack, maxStack)
	}
	if f.Weights != nil && len(f.Weights) != len(f.Code) {
		return fmt.Errorf("%d weights for %d instructions", len(f.Weights), len(f.Code))
	}
	var err error
	forEachBlock(f, func(start, n, fuel int) {
		for pc := start; pc < start+n && err == nil; pc++ {
			want := 0
			if pc == start {
				want = fuel
			}
			if got := int(f.Code[pc].Block); got != want {
				err = fmt.Errorf("pc %d: block fuel %d, want %d", pc, got, want)
			}
		}
	})
	if err != nil {
		return err
	}
	for pc, ins := range f.Code {
		if want := fusedAt(f.Code, pc); ins.Fused != want {
			return fmt.Errorf("pc %d: fused %s, want %s", pc, ins.Fused, want)
		}
	}
	return nil
}

// weight is the fuel of the instruction at pc.
func (f *Function) weight(pc int) int {
	if f.Weights == nil {
		return 1
	}
	return int(f.Weights[pc])
}

// forEachBlock calls visit with the start, length and fuel of each
// block of f's code, in code order. A block starts at pc 0, at every
// jump target and exception handler, after every impure instruction,
// and wherever the previous block's fuel would pass maxBlock.
func forEachBlock(f *Function, visit func(start, n, fuel int)) {
	// One bit per pc, plus one for the end of the code.
	lead := make([]uint64, len(f.Code)/64+1)
	mark := func(pc int) { lead[pc/64] |= 1 << (pc % 64) }
	mark(0)
	mark(len(f.Code))
	for pc, ins := range f.Code {
		switch ins.Op {
		case Jump, JumpIfFalse, JumpIfTrue:
			mark(int(ins.A))
		}
		if !ins.Op.pure() {
			mark(pc + 1)
		}
	}
	for _, ex := range f.ExTable {
		mark(int(ex.Handler))
	}
	start, fuel := 0, f.weight(0)
	for pc := 1; pc <= len(f.Code); pc++ {
		w := 0
		if pc < len(f.Code) {
			w = f.weight(pc)
		}
		if lead[pc/64]&(1<<(pc%64)) != 0 || fuel+w > maxBlock {
			visit(start, pc-start, fuel)
			start, fuel = pc, 0
		}
		fuel += w
	}
}

// fusedAt returns the superinstruction that runs the four instructions
// at pc, or Nop when they form none or a block that needs fuel starts
// inside them (a block that needs none can run under the charge of the
// one before it). The block fuel must already be filled in.
func fusedAt(code []Instr, pc int) Op {
	if pc+3 >= len(code) || code[pc].Op != Load {
		return Nop
	}
	for _, ins := range code[pc+1 : pc+4] {
		if ins.Block != 0 {
			return Nop
		}
	}
	switch [3]Op{code[pc+1].Op, code[pc+2].Op, code[pc+3].Op} {
	case [3]Op{Const, CmpLt, JumpIfFalse}:
		return LoadConstCmpLtJumpIfFalse
	case [3]Op{Const, CmpEq, JumpIfFalse}, [3]Op{Const, CmpNe, JumpIfFalse},
		[3]Op{Const, CmpGt, JumpIfFalse}, [3]Op{Const, CmpGe, JumpIfFalse}, [3]Op{Const, CmpLe, JumpIfFalse}:
		return LoadConstCmpJumpIfFalse
	case [3]Op{Load, Add, Store}:
		return LoadLoadAddStore
	case [3]Op{Const, Add, Store}:
		return LoadConstAddStore
	}
	return Nop
}
