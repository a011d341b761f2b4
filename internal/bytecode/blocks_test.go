package bytecode

import (
	"strings"
	"testing"
	"unsafe"
)

// loopProgram's main holds all three superinstruction shapes: the loop
// test, s = s + i and i += 1.
const loopProgram = `class T { static void main() {
  int s = 0;
  for (int i = 0; i < 10; i += 1) { s = s + i; }
  print(s);
} }`

// TestInstrSize pins Instr at 12 bytes: the block length and the
// superinstruction slot fill what was padding after Op.
func TestInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got != 12 {
		t.Errorf("unsafe.Sizeof(Instr{}) = %d, want 12", got)
	}
}

// TestLinkedBlocks pins what Compile links into loopProgram's main:
// the blocks, the superinstructions and the stack depth.
func TestLinkedBlocks(t *testing.T) {
	f := compileSrc(t, loopProgram).Entry()
	blocks := map[int]uint16{}
	fused := map[int]Op{}
	for pc, ins := range f.Code {
		if ins.Block != 0 {
			blocks[pc] = ins.Block
		}
		if ins.Fused != Nop {
			fused[pc] = ins.Fused
		}
	}
	wantBlocks := map[int]uint16{0: 4, 4: 4, 8: 9, 17: 3}
	wantFused := map[int]Op{4: LoadConstCmpLtJumpIfFalse, 8: LoadLoadAddStore, 12: LoadConstAddStore}
	if len(blocks) != len(wantBlocks) || len(fused) != len(wantFused) || f.MaxStack != 2 {
		t.Fatalf("blocks %v, fused %v, MaxStack %d\n%s", blocks, fused, f.MaxStack, Disassemble(f))
	}
	for pc, n := range wantBlocks {
		if blocks[pc] != n {
			t.Errorf("block at pc %d: %d, want %d\n%s", pc, blocks[pc], n, Disassemble(f))
		}
	}
	for pc, op := range wantFused {
		if fused[pc] != op {
			t.Errorf("fused at pc %d: %s, want %s", pc, fused[pc], op)
		}
	}
}

// TestFusedNeedsOneBlock pins that a superinstruction never spans a
// block boundary.
func TestFusedNeedsOneBlock(t *testing.T) {
	code := []Instr{{Op: Load}, {Op: Load}, {Op: Add}, {Op: Store}}
	if got := fusedAt(code, 0); got != LoadLoadAddStore {
		t.Fatalf("fusedAt = %s, want %s", got, LoadLoadAddStore)
	}
	for pc := 1; pc < 4; pc++ {
		code[pc].Block = 1
		if got := fusedAt(code, 0); got != Nop {
			t.Errorf("block starting at pc %d: fusedAt = %s, want nop", pc, got)
		}
		code[pc].Block = 0
	}
}

// TestLongBlockSplits pins that a run longer than an Instr.Block can
// describe is split into blocks of at most maxBlock instructions.
func TestLongBlockSplits(t *testing.T) {
	f := &Function{Code: make([]Instr, maxBlock+10)}
	f.Code[len(f.Code)-1].Op = Return
	if err := linkCode(f); err != nil {
		t.Fatal(err)
	}
	if f.Code[0].Block != maxBlock || f.Code[maxBlock].Block != 10 {
		t.Errorf("blocks %d and %d, want %d and 10", f.Code[0].Block, f.Code[maxBlock].Block, maxBlock)
	}
	if err := checkLinks(f, 0); err != nil {
		t.Errorf("checkLinks: %v", err)
	}
}

// TestVerifyChecksLinkedFields tampers with each field Compile links
// for the interpreter and expects Verify to reject the image.
func TestVerifyChecksLinkedFields(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(f *Function)
		want   string
	}{
		{"max stack too small", func(f *Function) { f.MaxStack-- }, "max stack"},
		{"max stack too large", func(f *Function) { f.MaxStack++ }, "max stack"},
		{"leader length", func(f *Function) { f.Code[8].Block++ }, "pc 8: block length"},
		{"leader dropped", func(f *Function) { f.Code[4].Block = 0 }, "pc 4: block length"},
		{"extra leader", func(f *Function) { f.Code[9].Block = 1 }, "pc 9: block length"},
		{"fused dropped", func(f *Function) { f.Code[8].Fused = Nop }, "pc 8: fused"},
		{"fused swapped", func(f *Function) { f.Code[12].Fused = LoadLoadAddStore }, "pc 12: fused"},
		{"fused added", func(f *Function) { f.Code[17].Fused = LoadConstAddStore }, "pc 17: fused"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := compileSrc(t, loopProgram)
			if err := Verify(img); err != nil {
				t.Fatalf("untampered: %v", err)
			}
			tc.tamper(img.Entry())
			if err := Verify(img); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Verify = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
