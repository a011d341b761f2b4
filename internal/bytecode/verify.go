package bytecode

import (
	"fmt"
)

// Verify structurally checks every function in the image, in the spirit
// of the JVM's classfile verifier:
//
//   - jump targets and exception-table ranges lie inside the code
//   - constant-pool, local, method-ref, field-ref and class-ref indices
//     are in range
//   - operand-stack depth is consistent at every instruction across all
//     paths (abstract interpretation with merge checking) and never
//     negative
//   - execution cannot fall off the end of the code
//   - every Invoke target resolves in the image, and Compile linked
//     each method ref to its callee and each static field ref to its
//     slot
//   - MaxStack, the block fuel and the superinstruction slots are the
//     ones linking derives from the code and its weights
//
// It returns an error describing the first violated rule.
func Verify(img *Image) error {
	for _, c := range img.Classes {
		for _, f := range c.Funcs {
			if err := img.VerifyFunction(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// VerifyFunction checks one function against the image by Verify's
// rules. A JIT tier's emitted code, which lives outside the image,
// passes through it once linked (LinkFunction).
func (img *Image) VerifyFunction(f *Function) error {
	if err := verifyFunc(img, f); err != nil {
		return fmt.Errorf("bytecode: verify %s: %w", f.Key(), err)
	}
	return nil
}

func verifyFunc(img *Image, f *Function) error {
	n := int32(len(f.Code))
	if n == 0 {
		return fmt.Errorf("empty code")
	}
	// Index range checks.
	for pc, ins := range f.Code {
		switch ins.Op {
		case Const:
			if ins.A < 0 || int(ins.A) >= len(f.Ints) {
				return fmt.Errorf("pc %d: const index %d out of range", pc, ins.A)
			}
		case ConstStr, Cover, UncommonTrap, Fail:
			if ins.A < 0 || int(ins.A) >= len(f.Strs) {
				return fmt.Errorf("pc %d: string index %d out of range", pc, ins.A)
			}
			if ins.Op == Fail && ins.B != 0 && ins.B != 1 {
				return fmt.Errorf("pc %d: fail pushes %d values", pc, ins.B)
			}
		case Load, Store:
			if ins.A < 0 || int(ins.A) >= f.NLocals {
				return fmt.Errorf("pc %d: local slot %d out of range [0,%d)", pc, ins.A, f.NLocals)
			}
		case Jump, JumpIfFalse, JumpIfTrue:
			if ins.A < 0 || ins.A >= n {
				return fmt.Errorf("pc %d: jump target %d out of range", pc, ins.A)
			}
		case Invoke, InvokeReflect:
			if ins.A < 0 || int(ins.A) >= len(f.Methods) {
				return fmt.Errorf("pc %d: method ref %d out of range", pc, ins.A)
			}
			ref := f.Methods[ins.A]
			if img.Lookup(ref) == nil {
				return fmt.Errorf("pc %d: unresolvable method %s", pc, ref)
			}
			if int(ins.A) >= len(f.Callees) || f.Callees[ins.A] != img.Lookup(ref) {
				return fmt.Errorf("pc %d: method ref %s not linked", pc, ref)
			}
		case GetField, PutField, GetStatic, PutStatic, ReflectGetF:
			if ins.A < 0 || int(ins.A) >= len(f.Fields) {
				return fmt.Errorf("pc %d: field ref %d out of range", pc, ins.A)
			}
			if ref := f.Fields[ins.A]; ref.Static && (ref.Slot < 0 || int(ref.Slot) >= len(img.Statics)) {
				return fmt.Errorf("pc %d: static field %s not linked", pc, ref)
			}
		case NewObj:
			if ins.A < 0 || int(ins.A) >= len(f.Classes) {
				return fmt.Errorf("pc %d: class ref %d out of range", pc, ins.A)
			}
			if img.Class(f.Classes[ins.A]) == nil {
				return fmt.Errorf("pc %d: unresolvable class %q", pc, f.Classes[ins.A])
			}
		}
	}
	for i, ex := range f.ExTable {
		if ex.Start < 0 || ex.End > n || ex.Start >= ex.End {
			return fmt.Errorf("extable %d: bad range [%d,%d)", i, ex.Start, ex.End)
		}
		if ex.Handler < 0 || ex.Handler >= n {
			return fmt.Errorf("extable %d: handler %d out of range", i, ex.Handler)
		}
		if ex.CatchSlot < 0 || int(ex.CatchSlot) >= f.NLocals {
			return fmt.Errorf("extable %d: catch slot %d out of range", i, ex.CatchSlot)
		}
	}
	maxStack, err := stackDepth(f)
	if err != nil {
		return err
	}
	return checkLinks(f, maxStack)
}

// stackDepth abstractly interprets stack depths over all paths and
// returns the deepest the operand stack gets on any of them.
func stackDepth(f *Function) (int, error) {
	const unvisited = -1
	depth := make([]int32, len(f.Code)) // int32: this runs on every compile and verify
	for i := range depth {
		depth[i] = unvisited
	}
	type workItem struct {
		pc int32
		d  int
	}
	maxDepth := 0
	work := []workItem{{0, 0}}
	for _, ex := range f.ExTable {
		work = append(work, workItem{ex.Handler, 0})
	}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		pc, d := it.pc, it.d
	path:
		for {
			if pc >= int32(len(f.Code)) {
				return 0, fmt.Errorf("execution falls off the end at pc %d", pc)
			}
			if prev := int(depth[pc]); prev != unvisited {
				if prev != d {
					return 0, fmt.Errorf("pc %d: inconsistent stack depth %d vs %d", pc, prev, d)
				}
				break // already explored from here
			}
			depth[pc] = int32(d)
			ins := f.Code[pc]
			switch ins.Op {
			case Invoke, InvokeReflect:
				ref := f.Methods[ins.A]
				pops := ref.NArgs
				if !ref.Static {
					pops++
				}
				d -= pops
				if !ref.Void {
					d++
				}
			case ReflectGetF:
				if !f.Fields[ins.A].Static {
					d-- // receiver
				}
				d++ // value
			case Fail:
				d += int(ins.B)
			default:
				eff, ok := ins.Op.StackEffect()
				if !ok {
					return 0, fmt.Errorf("pc %d: unknown opcode %d", pc, ins.Op)
				}
				d += eff
			}
			if d < 0 {
				return 0, fmt.Errorf("pc %d: stack underflow (%s)", pc, ins.Op)
			}
			maxDepth = max(maxDepth, d)
			switch ins.Op {
			case Jump:
				pc = ins.A
				continue
			case JumpIfFalse, JumpIfTrue:
				work = append(work, workItem{ins.A, d})
			case Return, ReturnVal, Throw:
				if ins.Op == ReturnVal && f.Void {
					return 0, fmt.Errorf("pc %d: value return from void function", pc)
				}
				break path
			}
			pc++
		}
	}
	return maxDepth, nil
}
