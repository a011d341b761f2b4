package core

import (
	"bytes"
	"context"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"slices"
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

// TestResumeFromEveryCut cuts each uninterrupted golden log at every
// byte offset. DecodeCheckpoint must return exactly the whole records
// before the cut, or an error; it errs only when the header line is
// torn. Then a campaign resumes from the cut at each line end and from
// one cut inside each line; it must either fail with an error, only
// when the header line is torn, or finish with the golden log and the
// uninterrupted result. The interrupted golden must be a prefix of the
// uninterrupted one.
func TestResumeFromEveryCut(t *testing.T) {
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", "checkpoint-"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.HasPrefix(read("feature"), read("feature-interrupted")) {
		t.Error("the interrupted feature log is not a prefix of the uninterrupted one")
	}
	for _, tc := range checkpointGoldenCases() {
		if tc.cancelAt > 0 {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			golden := read(tc.name)
			lines := bytes.SplitAfter(golden, []byte{'\n'})
			lines = lines[:len(lines)-1] // the empty string after the last newline
			for n := 0; n <= len(golden); n++ {
				ck, err := harness.DecodeCheckpoint(golden[:n])
				if err != nil {
					if n >= len(lines[0]) {
						t.Fatalf("cut at %d, after the header: %v", n, err)
					}
					continue
				}
				whole := bytes.Count(golden[:n], []byte{'\n'}) - 1
				if len(ck.Records) != whole {
					t.Fatalf("cut at %d: %d records, want the %d whole ones", n, len(ck.Records), whole)
				}
				for i, rec := range ck.Records {
					if !bytes.Equal(append(rec, '\n'), lines[i+1]) {
						t.Fatalf("cut at %d: record %d is %s, want %s", n, i+1, rec, lines[i+1])
					}
				}
			}

			// Resumes share one score cache: it never changes results.
			dir := t.TempDir()
			tc.cfg.ScoreCachePath = filepath.Join(dir, "scores.json")
			want, err := RunCampaignContext(context.Background(), tc.cfg, harness.Config{})
			if err != nil {
				t.Fatal(err)
			}
			in, out := filepath.Join(dir, "in.json"), filepath.Join(dir, "out.json")
			start := 0
			for _, ln := range lines {
				end := start + len(ln)
				for _, n := range []int{start + len(ln)/2, end} {
					if err := os.WriteFile(in, golden[:n], 0o644); err != nil {
						t.Fatal(err)
					}
					res, err := RunCampaignContext(context.Background(), tc.cfg, harness.Config{ResumePath: in, CheckpointPath: out})
					if err != nil {
						if n >= len(lines[0]) {
							t.Fatalf("resumed from a cut at %d, after the header: %v", n, err)
						}
						continue
					}
					got, err := os.ReadFile(out)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, golden) {
						t.Fatalf("resumed from a cut at %d: the log differs from the golden:\n got %s\nwant %s", n, got, golden)
					}
					if res.Executions != want.Executions || !slices.Equal(res.FinalDeltas, want.FinalDeltas) ||
						!maps.Equal(res.BugIDs(), want.BugIDs()) || len(res.Faults) != len(want.Faults) {
						t.Fatalf("resumed from a cut at %d: result differs from the uninterrupted run", n)
					}
				}
				start = end
			}
		})
	}
}
