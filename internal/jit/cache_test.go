package jit

import (
	"reflect"
	"slices"
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

// TestCompileCacheEntriesHoldNoIR: a cache entry keeps what replay
// needs and no optimized IR, and OnCompiled fires once per compilation
// whether it missed or hit, with the same events and counts; a replayed
// context has Fn == nil and the replaying execution's channels.
func TestCompileCacheEntriesHoldNoIR(t *testing.T) {
	src := hotProgram(`
    int r = 0;
    for (int k = 0; k < 6; k += 1) { r = r + i * 2 + k; }
  `)
	cache := NewCache(0)
	run := func() (ctxs []*Context, tierUps int, cov *coverage.Tracker) {
		cov = coverage.NewTracker()
		comp := New(profile.NewRecorder(profile.DefaultFlags()), cov, nil)
		comp.Cache, comp.CacheSalt = cache, src
		comp.OnCompiled = func(c *Context) { ctxs = append(ctxs, c) }
		cfg := vm.Config{C1Threshold: 4, C2Threshold: 8, JIT: comp,
			OnCompile: func(*bytecode.Function, vm.Tier) { tierUps++ }}
		vm.NewMachine(compileImg(t, src), cfg).Run()
		return ctxs, tierUps, cov
	}
	missed, missUps, _ := run()
	if len(missed) == 0 || len(missed) != missUps || cache.Len() != len(missed) {
		t.Fatalf("first run: %d OnCompiled calls, %d tier-ups, %d entries; want them equal and > 0", len(missed), missUps, cache.Len())
	}
	for _, c := range missed {
		if c.Fn == nil {
			t.Errorf("a compiling context has no Fn")
		}
	}
	hit, hitUps, cov := run()
	if st := cache.Stats(); st.Hits != int64(len(missed)) {
		t.Fatalf("second run: stats %+v, want %d hits", st, len(missed))
	}
	if len(hit) != len(missed) || hitUps != missUps {
		t.Fatalf("second run: %d OnCompiled calls, %d tier-ups; want %d of each", len(hit), hitUps, len(missed))
	}
	for i, c := range hit {
		if c.Fn != nil || c.Env == nil || c.Log == nil || c.Cov != cov {
			t.Errorf("replayed context %d: Fn %p Env %p Log %p Cov %p; want no Fn and this run's channels", i, c.Fn, c.Env, c.Log, c.Cov)
		}
		if c.Tier != missed[i].Tier || c.Counts != missed[i].Counts || !slices.Equal(c.Events, missed[i].Events) {
			t.Errorf("replayed context %d differs from the compilation it replays", i)
		}
	}
	irTypes := []reflect.Type{reflect.TypeOf((*Func)(nil)), reflect.TypeOf((*Node)(nil))}
	for key, e := range cache.entries {
		if path := findPointer(reflect.ValueOf(e), irTypes, map[uintptr]bool{}); path != "" {
			t.Errorf("entry %q pins IR at %s", key, path)
		}
		if e.ctx.Env != nil || e.ctx.Log != nil || e.ctx.Cov != nil || e.ctx.Hook != nil {
			t.Errorf("entry %q pins the compiling execution's channels", key)
		}
	}
}

// findPointer walks everything v reaches and returns the access path to
// the first non-nil pointer of one of the types, or "".
func findPointer(v reflect.Value, types []reflect.Type, seen map[uintptr]bool) string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return ""
		}
		if slices.Contains(types, v.Type()) {
			return v.Type().String()
		}
		if seen[v.Pointer()] {
			return ""
		}
		seen[v.Pointer()] = true
		if p := findPointer(v.Elem(), types, seen); p != "" {
			return "*" + p
		}
	case reflect.Interface:
		if !v.IsNil() {
			return findPointer(v.Elem(), types, seen)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := findPointer(v.Field(i), types, seen); p != "" {
				return "." + v.Type().Field(i).Name + p
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p := findPointer(v.Index(i), types, seen); p != "" {
				return "[]" + p
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if p := findPointer(it.Value(), types, seen); p != "" {
				return "[value]" + p
			}
		}
	}
	return ""
}
