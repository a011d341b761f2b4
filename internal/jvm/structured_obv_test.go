package jvm

import (
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/jit"
	"repro/internal/profile"
)

func runOpts() Options {
	return Options{Flags: profile.DefaultFlags(), ForceCompile: true, MaxSteps: 3_000_000}
}

// assertRunsEquivalent compares everything about two executions except
// the raw log text: program semantics, crash/bug state, OBV, and the
// execution-shape counters that the fuzzer's oracles read.
func assertRunsEquivalent(t *testing.T, label string, want, got *ExecResult) {
	t.Helper()
	if !reflect.DeepEqual(got.Result.Output, want.Result.Output) {
		t.Errorf("%s: output %v, want %v", label, got.Result.Output, want.Result.Output)
	}
	if (got.Result.Exception == nil) != (want.Result.Exception == nil) ||
		(got.Result.Crash == nil) != (want.Result.Crash == nil) {
		t.Errorf("%s: exception/crash state diverged", label)
	}
	if got.OBV != want.OBV {
		t.Errorf("%s: OBV %v, want %v", label, got.OBV, want.OBV)
	}
	if got.Compiled != want.Compiled {
		t.Errorf("%s: Compiled = %d, want %d", label, got.Compiled, want.Compiled)
	}
	if got.Result.Steps != want.Result.Steps || got.Result.Deopts != want.Result.Deopts ||
		got.Result.AllocCount != want.Result.AllocCount {
		t.Errorf("%s: steps/deopts/allocs = %d/%d/%d, want %d/%d/%d", label,
			got.Result.Steps, got.Result.Deopts, got.Result.AllocCount,
			want.Result.Steps, want.Result.Deopts, want.Result.AllocCount)
	}
	if !reflect.DeepEqual(got.Result.Tiers, want.Result.Tiers) {
		t.Errorf("%s: tiers %v, want %v", label, got.Result.Tiers, want.Result.Tiers)
	}
	if len(got.Triggered) != len(want.Triggered) {
		t.Fatalf("%s: Triggered len = %d, want %d", label, len(got.Triggered), len(want.Triggered))
	}
	for i := range want.Triggered {
		if got.Triggered[i].ID != want.Triggered[i].ID {
			t.Errorf("%s: Triggered[%d] = %s, want %s", label, i, got.Triggered[i].ID, want.Triggered[i].ID)
		}
	}
}

// TestStructuredOBVMatchesExtract is the fast-path acceptance test: for
// every corpus seed on every differential target, the structured
// counters must equal the reference regex extraction over the full
// profile log, with identical program semantics — and the fast path
// must not build log text at all.
func TestStructuredOBVMatchesExtract(t *testing.T) {
	seeds := corpus.DefaultPool(12, 9)
	for _, spec := range AllSpecs() {
		for _, seed := range seeds {
			ref, err := Run(seed.Parse(), spec, runOpts())
			if err != nil {
				t.Fatalf("%s %s: reference run: %v", spec.Name(), seed.Name, err)
			}
			if ref.OBV != profile.ExtractOBV(ref.Log) {
				t.Fatalf("%s %s: reference OBV does not match its own log", spec.Name(), seed.Name)
			}
			opt := runOpts()
			opt.StructuredOBV = true
			fast, err := Run(seed.Parse(), spec, opt)
			if err != nil {
				t.Fatalf("%s %s: structured run: %v", spec.Name(), seed.Name, err)
			}
			assertRunsEquivalent(t, spec.Name()+"/"+seed.Name, ref, fast)
			if fast.Log != "" {
				t.Errorf("%s %s: structured run built %d bytes of log text", spec.Name(), seed.Name, len(fast.Log))
			}
		}
	}
}

// TestCompileCacheTransparent pins the hit-equals-miss invariant: runs
// through a shared compile cache — including guaranteed hits on the
// second sweep over one program — must be indistinguishable (log text
// included) from uncached runs, across every target sharing the cache.
// The seed loop is outermost because the cache holds one program's
// compilations at a time.
func TestCompileCacheTransparent(t *testing.T) {
	seeds := corpus.DefaultPool(10, 11)
	cache := jit.NewCache(0)
	for _, seed := range seeds {
		for sweep := 0; sweep < 2; sweep++ {
			for _, spec := range AllSpecs() {
				ref, err := Run(seed.Parse(), spec, runOpts())
				if err != nil {
					t.Fatalf("%s %s: uncached run: %v", spec.Name(), seed.Name, err)
				}
				opt := runOpts()
				opt.CompileCache = cache
				cached, err := Run(seed.Parse(), spec, opt)
				if err != nil {
					t.Fatalf("%s %s: cached run: %v", spec.Name(), seed.Name, err)
				}
				assertRunsEquivalent(t, spec.Name()+"/"+seed.Name, ref, cached)
				if cached.Log != ref.Log {
					t.Errorf("%s %s: cached log diverged from uncached", spec.Name(), seed.Name)
				}
			}
		}
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Errorf("cache transparency test is vacuous: stats %+v", st)
	}
}
