package vm_test

import (
	"math"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/corpus"
	"repro/internal/jit"
	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/vm"
)

// BenchmarkCompiledLoop reports the cost per step of compiled code:
// loopSrc and the 20 default corpus seeds under forced compilation
// (-Xcomp: C1 on a method's first call, C2 on its second), bugs
// disarmed, with a compile cache shared across iterations so the
// measured time is execution rather than compilation. Its
// interpreter-only counterpart is BenchmarkInterpreterLoop.
func BenchmarkCompiledLoop(b *testing.B) {
	b.Run("loop", func(b *testing.B) {
		benchCompiled(b, []*bytecode.Image{compileImage(b, vm.LoopSrc)})
	})
	b.Run("seeds", func(b *testing.B) {
		var imgs []*bytecode.Image
		for _, s := range corpus.DefaultPool(20, 1) {
			imgs = append(imgs, compileImage(b, s.Source))
		}
		benchCompiled(b, imgs)
	})
}

func benchCompiled(b *testing.B, imgs []*bytecode.Image) {
	caches := make([]*jit.Cache, len(imgs))
	for i := range caches {
		caches[i] = jit.NewCache(0)
	}
	var steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, img := range imgs {
			comp := jit.New(profile.NewRecorder(profile.NoFlags()), nil, nil)
			comp.Cache, comp.CacheSalt = caches[k], "bench"
			res := vm.NewMachine(img, vm.Config{JIT: comp, CompileEager: true, MaxSteps: math.MaxInt64}).Run()
			if res.Crash != nil || res.TimedOut {
				b.Fatalf("run %d: %s", k, res.OutputString())
			}
			steps += res.Steps
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}

func compileImage(tb testing.TB, src string) *bytecode.Image {
	tb.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	if err := lang.Check(p); err != nil {
		tb.Fatal(err)
	}
	img, err := bytecode.Compile(p)
	if err != nil {
		tb.Fatal(err)
	}
	return img
}
