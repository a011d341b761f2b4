package core

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"repro/internal/buginject"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/jvm"
)

func genCampaignCfg(seed int64) CampaignConfig {
	return CampaignConfig{
		Seeds:      corpus.DefaultPool(4, seed),
		Budget:     220,
		Targets:    []jvm.Spec{{Impl: buginject.HotSpot, Version: 17}},
		Fuzz:       testCampaignCfg(seed),
		Seed:       seed,
		Generators: []string{"randprog", "template", "style"},
		Styles:     []string{"boxing-loop", "coarsen-store"},
	}
}

// generateBlockOf decodes the generate block of a raw checkpoint.
func generateBlockOf(t *testing.T, data []byte) *campaignState {
	t.Helper()
	var ck harness.Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		t.Fatal(err)
	}
	var st campaignState
	if err := json.Unmarshal(ck.State, &st); err != nil {
		t.Fatal(err)
	}
	return &st
}

// TestGeneratorsOffMatchesBaseline pins the acceptance criterion: a
// campaign that names only the baseline generator is the subsystem-off
// campaign — byte-identical results and checkpoint (no generate block)
// against a config that never heard of generators.
func TestGeneratorsOffMatchesBaseline(t *testing.T) {
	base := CampaignConfig{
		Seeds:   corpus.DefaultPool(3, 41),
		Budget:  150,
		Targets: []jvm.Spec{{Impl: buginject.HotSpot, Version: 17}},
		Fuzz:    testCampaignCfg(41),
		Seed:    41,
	}
	withOff := base
	withOff.Generators = []string{"randprog"}

	plain, plainCkpt := runForCheckpoint(t, base, 1)
	off, offCkpt := runForCheckpoint(t, withOff, 1)
	assertCampaignsEqual(t, plain, off)
	if s, o := normalizeCheckpoint(t, plainCkpt), normalizeCheckpoint(t, offCkpt); s != o {
		t.Errorf("randprog-only checkpoint diverged from baseline:\nplain: %s\noff:   %s", s, o)
	}
	if v := checkpointVersionOf(t, offCkpt); v != harness.CheckpointVersion {
		t.Errorf("randprog-only checkpoint version = %d, want %d", v, harness.CheckpointVersion)
	}
	if st := generateBlockOf(t, offCkpt); st.Generate != nil {
		t.Error("randprog-only checkpoint carries a generate block")
	}
}

// TestGeneratorCampaignDeterministic: generator emissions and the
// round-boundary pool refresh are pure functions of the campaign seed
// and emission counts, so two identical runs agree byte-for-byte —
// and the final checkpoint carries the generate block with the
// refreshed slot overlay.
func TestGeneratorCampaignDeterministic(t *testing.T) {
	ccfg := genCampaignCfg(42)
	a, aCkpt := runForCheckpoint(t, ccfg, 1)
	b, bCkpt := runForCheckpoint(t, ccfg, 1)
	assertCampaignsEqual(t, a, b)
	if s, o := normalizeCheckpoint(t, aCkpt), normalizeCheckpoint(t, bCkpt); s != o {
		t.Errorf("generator campaign not deterministic:\na: %s\nb: %s", s, o)
	}
	if v := checkpointVersionOf(t, aCkpt); v != harness.CheckpointVersion {
		t.Errorf("checkpoint version = %d, want %d", v, harness.CheckpointVersion)
	}
	st := generateBlockOf(t, aCkpt)
	if st.Generate == nil {
		t.Fatal("checkpoint has no generate block")
	}
	if st.Generate.LastRound == 0 || len(st.Generate.Slots) == 0 {
		t.Fatalf("no pool refresh happened: LastRound=%d, %d slots (budget too small?)",
			st.Generate.LastRound, len(st.Generate.Slots))
	}
	total := 0
	for _, n := range st.Generate.Emitted {
		total += n
	}
	if st.Generate.Emitted["template"] == 0 {
		t.Errorf("emissions %v: the template generator emitted nothing", st.Generate.Emitted)
	}
	if total < len(st.Generate.Slots) {
		t.Errorf("emission counts (%d) inconsistent with slot overlay (%d)", total, len(st.Generate.Slots))
	}
	for _, sl := range st.Generate.Slots {
		if sl.Gen == "" || sl.Name == "" || sl.Source == "" {
			t.Errorf("slot %d missing provenance: %+v", sl.Index, sl)
		}
	}
}

// TestGeneratorParallelMatchesSequential: the refresh happens on the
// campaign goroutine under the engine's round barrier, so sharding
// across 8 workers must reproduce the sequential campaign — results
// and checkpoint — byte-identically, with the power schedule's
// generator bandit arms active.
func TestGeneratorParallelMatchesSequential(t *testing.T) {
	ccfg := genCampaignCfg(43)
	ccfg.SeedSchedule = corpus.SchedulePower
	seq, seqCkpt := runForCheckpoint(t, ccfg, 1)
	par, parCkpt := runForCheckpoint(t, ccfg, 8)
	assertCampaignsEqual(t, seq, par)
	if s, p := normalizeCheckpoint(t, seqCkpt), normalizeCheckpoint(t, parCkpt); s != p {
		t.Errorf("parallel generator campaign diverged from sequential:\nseq: %s\npar: %s", s, p)
	}
}

// TestGeneratorCheckpointResumeEquivalence: an interrupted generator
// campaign resumed from its checkpoint must equal the uninterrupted
// run — the slot overlay restores the refreshed pool, the emission
// counts pin the generator streams, and the schedule's renamed and
// generator arms restore in place.
func TestGeneratorCheckpointResumeEquivalence(t *testing.T) {
	ccfg := genCampaignCfg(44)
	ccfg.SeedSchedule = corpus.SchedulePower
	uninterrupted := RunCampaign(ccfg)

	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, err := RunCampaignContext(ctx, ccfg, harness.Config{
		CheckpointPath: ckpt,
		OnTask: func(done int) {
			if done == 6 { // past the first refresh: the overlay must restore, not replay
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Interrupted {
		t.Fatal("cancellation did not mark the result interrupted")
	}
	if partial.Executions >= uninterrupted.Executions {
		t.Fatalf("partial run executed %d >= %d: nothing left to resume", partial.Executions, uninterrupted.Executions)
	}

	resumed, err := RunCampaignContext(context.Background(), ccfg, harness.Config{
		CheckpointPath: ckpt,
		ResumePath:     ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Resumed {
		t.Error("resumed run not marked Resumed")
	}
	assertCampaignsEqual(t, uninterrupted, resumed)
}

// TestGeneratorResumeConfigMismatch: a generator checkpoint refuses to resume
// into a generator-free config (the pool overlay would be silently
// dropped), and a generator config refuses a checkpoint without
// generator state (the pool would silently diverge from the
// interrupted run).
func TestGeneratorResumeConfigMismatch(t *testing.T) {
	ccfg := genCampaignCfg(45)
	ccfg.Budget = 120
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt.json")
	if _, err := RunCampaignContext(context.Background(), ccfg, harness.Config{CheckpointPath: ckpt}); err != nil {
		t.Fatal(err)
	}
	offCfg := ccfg
	offCfg.Generators, offCfg.Styles = nil, nil
	if _, err := RunCampaignContext(context.Background(), offCfg, harness.Config{ResumePath: ckpt}); err == nil {
		t.Fatal("generator-free resume of a generator checkpoint succeeded; slot overlay was silently dropped")
	}

	plainCfg := offCfg
	plainCkpt := filepath.Join(t.TempDir(), "plain.ckpt.json")
	if _, err := RunCampaignContext(context.Background(), plainCfg, harness.Config{CheckpointPath: plainCkpt}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunCampaignContext(context.Background(), ccfg, harness.Config{ResumePath: plainCkpt}); err == nil {
		t.Fatal("generator resume of a generator-free checkpoint succeeded; pool would diverge")
	}
}

// TestGeneratorFindingsCarryProvenance: findings surfaced on generated
// seeds carry the emitting generator's ID, and it round-trips through
// the checkpoint.
func TestGeneratorFindingsCarryProvenance(t *testing.T) {
	ccfg := genCampaignCfg(46)
	ccfg.Budget = 400
	var generated int
	ccfg.OnProgress = func(p Progress) { generated = p.GeneratedSeeds }
	res, ckpt := runForCheckpoint(t, ccfg, 1)
	if generated == 0 {
		t.Error("Progress.GeneratedSeeds never rose above zero")
	}
	st := generateBlockOf(t, ckpt)
	bySlot := map[string]string{}
	for _, sl := range st.Generate.Slots {
		bySlot[sl.Name] = sl.Gen
	}
	for i, f := range res.Findings {
		if gen, ok := bySlot[f.SeedName]; ok && f.GeneratorID != gen {
			t.Errorf("finding %d on generated seed %s: GeneratorID=%q, slot says %q",
				i, f.SeedName, f.GeneratorID, gen)
		}
	}
	for _, fs := range st.Findings {
		if gen, ok := bySlot[fs.SeedName]; ok && fs.GeneratorID != gen {
			t.Errorf("snapshot finding on %s: generator_id=%q, slot says %q", fs.SeedName, fs.GeneratorID, gen)
		}
	}
}
