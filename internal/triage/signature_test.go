package triage

import (
	"context"
	"testing"
	"time"

	"repro/internal/buginject"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/jvm"
	"repro/internal/profile"
)

// crasherA triggers JDK-8312744 (lock coarsening over unrolled sync
// regions) on the reference VM without any mutation — the same program
// the core checkpoint tests use as a deterministic crasher.
const crasherA = `
class T {
  int f;
  static void main() {
    T t = new T();
    t.f = 3;
    long total = 0;
    for (int i = 0; i < 1500; i += 1) {
      total = total + t.foo(i);
    }
    print(total);
  }
  int foo(int i) {
    int acc = 0;
    for (int k = 0; k < 4; k += 1) {
      synchronized (this) {
        acc = acc + k + i;
      }
    }
    synchronized (this) {
      acc = acc + this.f;
    }
    return acc;
  }
}
`

// crasherB reaches the same coarsening bug through a structurally
// different program (different names, constants, and extra statements),
// so two distinct seeds exercise one root cause.
const crasherB = `
class U {
  int g;
  int pad;
  static void main() {
    U u = new U();
    u.g = 7;
    u.pad = 1;
    long sum = 0;
    int extra = 2;
    for (int j = 0; j < 1600; j += 1) {
      sum = sum + u.bar(j) + extra;
    }
    print(sum);
  }
  int bar(int j) {
    int v = 1;
    for (int m = 0; m < 4; m += 1) {
      synchronized (this) {
        v = v + m + j + this.pad;
      }
    }
    synchronized (this) {
      v = v + this.g;
    }
    return v;
  }
}
`

func oracleFor(b *buginject.Bug) string {
	if b.Effect == buginject.EffectCrash {
		return "crash"
	}
	return "differential"
}

// TestSignatureDistinctCatalogBugsNeverCollide: table-driven over the
// whole injected-bug catalog — no two distinct catalog bugs may share a
// signature key.
func TestSignatureDistinctCatalogBugsNeverCollide(t *testing.T) {
	keys := map[string]string{}
	for _, b := range buginject.Catalog {
		f := &core.Finding{Bug: b, Oracle: oracleFor(b)}
		k := Compute(f).Key()
		if prev, clash := keys[k]; clash {
			t.Errorf("bugs %s and %s collide on key %q", prev, b.ID, k)
		}
		keys[k] = b.ID
	}
	if len(keys) != len(buginject.Catalog) {
		t.Errorf("%d keys for %d catalog bugs", len(keys), len(buginject.Catalog))
	}
}

// TestSignatureStableAcrossProvenance: the same catalog bug reached via
// different seeds, mutation chains, campaign positions, targets, and
// divergence sites keys identically — provenance is metadata, not
// identity.
func TestSignatureStableAcrossProvenance(t *testing.T) {
	bug := buginject.ByID("JDK-8312744")
	if bug == nil {
		t.Fatal("JDK-8312744 missing from the catalog")
	}
	base := core.Finding{Bug: bug, Oracle: "crash", SeedName: "SeedA", Target: jvm.Reference()}
	variants := []core.Finding{
		base,
		{Bug: bug, Oracle: "crash", SeedName: "SeedB", Cursor: 99, Round: 4, Mutators: []string{"Inlining-evoke", "LoopUnrolling-evoke"}},
		{Bug: bug, Oracle: "crash", Target: jvm.Spec{Impl: bug.Impl, Version: 21}, AtExecution: 5000},
		{Bug: bug, Oracle: "crash",
			Divergence: &jvm.Divergence{Modal: jvm.Reference(), Divergent: jvm.Spec{Impl: bug.Impl, Version: 8}, Index: 2}},
		{Bug: bug, Oracle: "crash", OBV: profile.OBV{0: 40, 3: 7}},
	}
	want := Compute(&base).Key()
	for i := range variants {
		if got := Compute(&variants[i]).Key(); got != want {
			t.Errorf("variant %d key %q != base key %q", i, got, want)
		}
	}
}

// TestSignatureUnattributedDivergence: findings with no catalog bug fall
// back to the divergence site, and different sites stay distinct.
func TestSignatureUnattributedDivergence(t *testing.T) {
	div := func(idx int) *jvm.Divergence {
		return &jvm.Divergence{Modal: jvm.Reference(), Divergent: jvm.Spec{Impl: buginject.HotSpot, Version: 8}, Index: idx}
	}
	a := Compute(&core.Finding{Oracle: "differential", Divergence: div(1), OBV: profile.OBV{2: 5}})
	b := Compute(&core.Finding{Oracle: "differential", Divergence: div(1), OBV: profile.OBV{2: 9}})
	c := Compute(&core.Finding{Oracle: "differential", Divergence: div(3), OBV: profile.OBV{2: 5}})
	if a.Key() != b.Key() {
		t.Errorf("same divergence site split: %q vs %q", a.Key(), b.Key())
	}
	if a.Key() == c.Key() {
		t.Errorf("different divergence indexes collide on %q", a.Key())
	}
	if a.BugID != "" || a.DivergentPair == "" {
		t.Errorf("unattributed signature malformed: %+v", a)
	}
}

// campaignKeys runs a short deterministic campaign over the given seeds
// and collects the signature key of every finding occurrence.
func campaignKeys(t *testing.T, ex exec.Executor, seeds []corpus.Seed) map[string]bool {
	t.Helper()
	target := jvm.Reference()
	cfg := core.DefaultConfig(target)
	cfg.DiffSpecs = nil
	cfg.MaxIterations = 2
	cfg.Executor = ex
	keys := map[string]bool{}
	res, err := core.RunCampaignContext(context.Background(), core.CampaignConfig{
		Seeds:    seeds,
		Budget:   20,
		Targets:  []jvm.Spec{target},
		Fuzz:     cfg,
		Seed:     7,
		Executor: ex,
		OnFinding: func(f core.Finding) {
			keys[Compute(&f).Key()] = true
		},
	}, harness.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatal("campaign produced no findings")
	}
	return keys
}

// TestSignatureOneKeyAcrossSeeds: the same injected bug reached from two
// structurally different seeds deduplicates to a single signature.
func TestSignatureOneKeyAcrossSeeds(t *testing.T) {
	keys := campaignKeys(t, nil, []corpus.Seed{
		{Name: "crasherA", Source: crasherA},
		{Name: "crasherB", Source: crasherB},
	})
	if len(keys) != 1 {
		t.Fatalf("two seeds triggering one bug produced %d signatures: %v", len(keys), keys)
	}
}

// TestSignatureStableAcrossBackends: the in-process and pool execution
// backends yield identical signature sets for the same
// campaign — signatures must not depend on where execution happened.
func TestSignatureStableAcrossBackends(t *testing.T) {
	if minijvmPath == "" {
		t.Skip("minijvm binary unavailable (-short or build failure)")
	}
	seeds := []corpus.Seed{
		{Name: "crasherA", Source: crasherA},
		{Name: "crasherB", Source: crasherB},
	}
	inproc := campaignKeys(t, nil, seeds)
	pool := exec.NewPool(exec.PoolConfig{Path: minijvmPath, Timeout: 30 * time.Second})
	defer pool.Close()
	viaPool := campaignKeys(t, pool, seeds)
	if len(inproc) != len(viaPool) {
		t.Fatalf("backend signature sets differ: inprocess %v, pool %v", inproc, viaPool)
	}
	for k := range inproc {
		if !viaPool[k] {
			t.Errorf("key %q found in-process but not via the pool", k)
		}
	}
}
