package core

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/buginject"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/jvm"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestCheckpointGolden pins the exact bytes of the final checkpoint of
// four small fixed campaigns: schedule and generators off; plan fuzzing,
// the power schedule and all three generators on; that same campaign
// cancelled mid-round, so the round's sampled plan is in the snapshot;
// and a power campaign whose allocator seed exhausts the heap in its
// baseline run, so a fault and retired arms are in the snapshot. The
// checkpoint is the resume and fleet-handoff contract, so a
// restructure of the campaign loop must leave every byte alone.
// Regenerate with `go test ./internal/core -run TestCheckpointGolden
// -update` only when a change is meant to alter the format.
func TestCheckpointGolden(t *testing.T) {
	for _, tc := range checkpointGoldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ckpt := filepath.Join(t.TempDir(), "campaign.ckpt.json")
			hcfg := harness.Config{CheckpointPath: ckpt}
			if tc.cancelAt > 0 {
				hcfg.OnTask = func(done int) {
					if done == tc.cancelAt {
						cancel()
					}
				}
			}
			res, err := RunCampaignContext(ctx, tc.cfg, hcfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Interrupted != (tc.cancelAt > 0) {
				t.Fatalf("Interrupted = %v, want %v", res.Interrupted, tc.cancelAt > 0)
			}
			got, err := os.ReadFile(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "checkpoint-"+tc.name+".json")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("checkpoint bytes differ from %s:\n got %s\nwant %s", path, got, want)
			}
		})
	}
}

// checkpointGoldenCase is one campaign whose final checkpoint is a
// golden file, testdata/checkpoint-<name>.json.
type checkpointGoldenCase struct {
	name     string
	cfg      CampaignConfig
	cancelAt int // cancel the campaign once this many tasks are done
}

func checkpointGoldenCases() []checkpointGoldenCase {
	hs17 := []jvm.Spec{{Impl: buginject.HotSpot, Version: 17}}
	feature := func() CampaignConfig {
		fcfg := testCampaignCfg(51)
		fcfg.PlanFuzz = jit.PlanFull
		return CampaignConfig{
			Seeds:        corpus.DefaultPool(4, 51),
			Budget:       160,
			Targets:      hs17,
			Fuzz:         fcfg,
			Seed:         51,
			SeedSchedule: corpus.SchedulePower,
			Generators:   []string{"randprog", "template", "style"},
		}
	}
	heapCfg := testCampaignCfg(52)
	heapCfg.MaxHeapUnits = 20_000
	return []checkpointGoldenCase{
		{name: "off", cfg: CampaignConfig{
			Seeds:   corpus.DefaultPool(3, 50),
			Budget:  120,
			Targets: hs17,
			Fuzz:    testCampaignCfg(50),
			Seed:    50,
		}},
		{name: "feature", cfg: feature()},
		// Task 6 of a 4-seed pool is mid-way through round 1, after the
		// first generator refresh.
		{name: "feature-interrupted", cfg: feature(), cancelAt: 6},
		{name: "power-heap", cfg: CampaignConfig{
			Seeds:        append(corpus.DefaultPool(2, 52), allocSeed),
			Budget:       120,
			Targets:      hs17,
			Fuzz:         heapCfg,
			Seed:         52,
			SeedSchedule: corpus.SchedulePower,
		}},
	}
}
