package core

import (
	"context"
	"encoding/json"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/buginject"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/jvm"
)

// TestCampaignCountsCheckpointWriteFailures: a checkpoint path that can
// never be written (missing parent directory) must not kill the
// campaign, but each failed flush must be counted and the last error
// surfaced — not silently dropped.
func TestCampaignCountsCheckpointWriteFailures(t *testing.T) {
	cfg := DefaultConfig(jvm.Spec{Impl: buginject.HotSpot, Version: 17})
	cfg.DiffSpecs = nil
	res, err := RunCampaignContext(context.Background(), CampaignConfig{
		Seeds:  corpus.DefaultPool(2, 3),
		Budget: 30,
		Fuzz:   cfg,
		Seed:   3,
	}, harness.Config{
		CheckpointPath: filepath.Join(t.TempDir(), "no-such-dir", "ck.json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions < 30 {
		t.Errorf("campaign stopped early: %d executions", res.Executions)
	}
	if res.CheckpointErrors == 0 {
		t.Fatal("checkpoint write failures were not counted")
	}
	if res.LastCheckpointError == "" {
		t.Error("LastCheckpointError empty")
	}
}

func TestCampaignCheckpointErrorsZeroOnHealthyPath(t *testing.T) {
	cfg := DefaultConfig(jvm.Spec{Impl: buginject.HotSpot, Version: 17})
	cfg.DiffSpecs = nil
	res, err := RunCampaignContext(context.Background(), CampaignConfig{
		Seeds:  corpus.DefaultPool(2, 3),
		Budget: 30,
		Fuzz:   cfg,
		Seed:   3,
	}, harness.Config{
		CheckpointPath: filepath.Join(t.TempDir(), "ck.json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointErrors != 0 {
		t.Errorf("CheckpointErrors = %d (last: %s), want 0", res.CheckpointErrors, res.LastCheckpointError)
	}
}

// crashingSeedSrc triggers JDK-8312744 (lock coarsening over unrolled
// sync regions) on the reference VM without any mutation, so a campaign
// over it records a crash finding deterministically.
const crashingSeedSrc = `
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

// TestCheckpointFindingProvenanceRoundTrip: the finding provenance fields —
// cursor, round, mutator chain, OBV — must survive a save/resume cycle
// bit-for-bit.
func TestCheckpointFindingProvenanceRoundTrip(t *testing.T) {
	target := jvm.Reference()
	cfg := DefaultConfig(target)
	cfg.DiffSpecs = nil
	path := filepath.Join(t.TempDir(), "ck.json")
	ccfg := CampaignConfig{
		Seeds:   []corpus.Seed{{Name: "crasher", Source: crashingSeedSrc}},
		Budget:  3,
		Targets: []jvm.Spec{target},
		Fuzz:    cfg,
		Seed:    7,
	}
	res, err := RunCampaignContext(context.Background(), ccfg, harness.Config{CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatal("the crashing seed produced no finding")
	}
	orig := res.Findings[0]
	if orig.OBV.Total() == 0 {
		t.Fatal("finding recorded no OBV (flags should be on during fuzzing)")
	}

	res2, err := RunCampaignContext(context.Background(), CampaignConfig{
		Seeds:   ccfg.Seeds,
		Budget:  res.Executions, // already exhausted: restore only
		Targets: ccfg.Targets,
		Fuzz:    cfg,
		Seed:    7,
	}, harness.Config{ResumePath: path})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Resumed || len(res2.Findings) != len(res.Findings) {
		t.Fatalf("resume lost findings: %d vs %d", len(res2.Findings), len(res.Findings))
	}
	got := res2.Findings[0]
	if got.Cursor != orig.Cursor || got.Round != orig.Round || !slices.Equal(got.Mutators, orig.Mutators) {
		t.Errorf("provenance drifted: got cursor=%d round=%d chain=%v, want cursor=%d round=%d chain=%v",
			got.Cursor, got.Round, got.Mutators, orig.Cursor, orig.Round, orig.Mutators)
	}
	if got.OBV != orig.OBV {
		t.Errorf("OBV drifted:\n got %v\nwant %v", got.OBV, orig.OBV)
	}
}

// TestCheckpointDivergenceRoundTrip: a differential finding's divergence
// site is restored spec-for-spec from its log record, and the fold
// stamps the record's cursor on it.
func TestCheckpointDivergenceRoundTrip(t *testing.T) {
	bug := buginject.Catalog[0]
	cfg := DefaultConfig(jvm.Spec{Impl: buginject.HotSpot, Version: 17})
	cfg.DiffSpecs = nil
	ccfg := CampaignConfig{
		Seeds:  corpus.DefaultPool(2, 3),
		Budget: 50,
		Fuzz:   cfg,
		Seed:   3,
	}
	// A campaign with no budget writes the header alone.
	path := filepath.Join(t.TempDir(), "ck.json")
	empty := ccfg
	empty.Budget = 0
	if _, err := RunCampaignContext(context.Background(), empty, harness.Config{CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	ck, err := harness.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ck.Records = append(ck.Records,
		json.RawMessage(`{"executions":10,"delta":0}`),
		json.RawMessage(`{"executions":40,"delta":1.5,"bugs":1,"findings":[{"bug_id":"`+bug.ID+`","oracle":"differential",`+
			`"mutators":["a","b","c","d"],"divergence":{"modal":"openjdk-8","divergent":"openjdk-21","index":3}}],`+
			`"obv":[3,0,2,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}`))
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}

	res, err := RunCampaignContext(context.Background(), ccfg, harness.Config{ResumePath: path})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %d, want 1", len(res.Findings))
	}
	f := res.Findings[0]
	if f.Divergence == nil {
		t.Fatal("divergence dropped on resume")
	}
	want := jvm.Divergence{Modal: jvm.Spec{Impl: buginject.HotSpot, Version: 8},
		Divergent: jvm.Spec{Impl: buginject.HotSpot, Version: 21}, Index: 3}
	if *f.Divergence != want {
		t.Errorf("divergence = %+v, want %+v", *f.Divergence, want)
	}
	if len(f.Mutators) != 4 || f.Cursor != 1 || f.OBV[0] != 3 || f.AtExecution != 50 {
		t.Errorf("provenance = cursor %d chain %d obv[0] %d at %d, want 1/4/3 at 50",
			f.Cursor, len(f.Mutators), f.OBV[0], f.AtExecution)
	}
}
