package jit

import (
	"sync"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/coverage"
	"repro/internal/profile"
	"repro/internal/vm"
)

// TestCompileCacheScopedToOneProgram: the cache holds one salt's
// compilations. A probe under another salt drops them, so switching
// programs and back misses again, while re-running one program hits.
func TestCompileCacheScopedToOneProgram(t *testing.T) {
	src := hotProgram(`
    int r = i * 3 + (i % 7);
  `)
	cache := NewCache(0)
	run := func(salt string) {
		comp := New(profile.NewRecorder(profile.DefaultFlags()), coverage.NewTracker(), nil)
		comp.Cache, comp.CacheSalt = cache, salt
		vm.NewMachine(compileImg(t, src), vm.Config{C1Threshold: 4, C2Threshold: 8, JIT: comp}).Run()
	}
	run("a")
	entries := cache.Len()
	if entries == 0 {
		t.Fatal("no compilations cached")
	}
	run("a")
	if st := cache.Stats(); st.Hits != int64(entries) {
		t.Fatalf("re-run of one program: stats %+v, want %d hits", st, entries)
	}
	run("b")
	run("a")
	if st := cache.Stats(); st.Hits != int64(entries) || cache.Len() != entries {
		t.Errorf("after switching programs: stats %+v, %d entries; want no new hits and %d entries", st, cache.Len(), entries)
	}
}

// TestCompileCacheSharedAcrossGoroutines: goroutines running different
// programs through one cache keep evicting each other's compilations,
// yet every run prints and profiles exactly as an uncached run does.
func TestCompileCacheSharedAcrossGoroutines(t *testing.T) {
	srcs := []string{
		hotProgram(`
    int r = i * 3 + (i % 7);
  `),
		hotProgram(`
    int r = 0;
    for (int k = 0; k < 6; k += 1) { r = r + i * 2 + k; }
  `),
	}
	const runs = 20
	run := func(img *bytecode.Image, salt string, cache *Cache) (out, prof string) {
		rec := profile.NewRecorder(profile.DefaultFlags())
		comp := New(rec, coverage.NewTracker(), nil)
		comp.Cache, comp.CacheSalt = cache, salt
		res := vm.NewMachine(img, vm.Config{C1Threshold: 4, C2Threshold: 8, JIT: comp}).Run()
		return res.OutputString(), rec.Text()
	}
	cache := NewCache(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		src := srcs[g%len(srcs)]
		wantOut, wantProf := run(compileImg(t, src), src, nil)
		imgs := make([]*bytecode.Image, runs)
		for i := range imgs {
			imgs[i] = compileImg(t, src)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, img := range imgs {
				if out, prof := run(img, src, cache); out != wantOut || prof != wantProf {
					t.Errorf("goroutine run %d diverged from the uncached run", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
