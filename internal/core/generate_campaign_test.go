package core

import (
	"context"
	"path/filepath"
	"slices"
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

// TestGeneratorsOffMatchesBaseline pins the acceptance criterion: a
// campaign that names only the baseline generator is the subsystem-off
// campaign — byte-identical results and checkpoint log (no generators
// in its header) against a config that never heard of generators.
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
	if h := headerOf(t, offCkpt); h.Config.Generators != nil {
		t.Errorf("randprog-only checkpoint header names generators %v", h.Config.Generators)
	}
}

// TestGeneratorCampaignDeterministic: generator emissions and the
// round-boundary pool refresh are pure functions of the campaign seed
// and emission counts, so two identical runs agree byte-for-byte — and
// folding the final log rebuilds the refreshed pool.
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
	c := foldLog(t, ccfg, aCkpt)
	var slots []corpus.Seed
	for _, s := range c.cfg.Seeds {
		if s.Gen != "" {
			slots = append(slots, s)
		}
	}
	if c.gen.lastRound == 0 || len(slots) == 0 {
		t.Fatalf("no pool refresh happened: last round %d, %d generated slots (budget too small?)",
			c.gen.lastRound, len(slots))
	}
	if c.gen.emitted["template"] == 0 {
		t.Errorf("emissions %v: the template generator emitted nothing", c.gen.emitted)
	}
	if total := c.gen.generated(); total < len(slots) {
		t.Errorf("emission counts (%d) inconsistent with the generated slots (%d)", total, len(slots))
	}
	for _, sl := range slots {
		if sl.Name == "" || sl.Source == "" {
			t.Errorf("generated slot missing provenance: %+v", sl)
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
// run — folding the log replays the pool refreshes, the emission
// counts and the schedule's renamed and generator arms.
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
			if done == 6 { // past the first refresh: the fold must replay it
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
// into a generator-free config (the pool refreshes would be silently
// dropped), and a generator config refuses a checkpoint written without
// generators (the pool would silently diverge from the interrupted
// run).
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
	c := foldLog(t, ccfg, ckpt)
	bySlot := map[string]string{}
	for _, s := range c.cfg.Seeds {
		if s.Gen != "" {
			bySlot[s.Name] = s.Gen
		}
	}
	for i, f := range res.Findings {
		if gen, ok := bySlot[f.SeedName]; ok && f.GeneratorID != gen {
			t.Errorf("finding %d on generated seed %s: GeneratorID=%q, slot says %q",
				i, f.SeedName, f.GeneratorID, gen)
		}
	}
	if !slices.EqualFunc(c.res.Findings, res.Findings, func(a, b Finding) bool {
		return a.Bug == b.Bug && a.SeedName == b.SeedName && a.GeneratorID == b.GeneratorID
	}) {
		t.Error("the folded log's findings differ from the run's")
	}
}
