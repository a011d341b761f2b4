package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/buginject"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/jvm"
)

// resumeOnce writes data as a checkpoint log and resumes the golden
// campaign tc from it, once on the sequential engine and once at
// Workers: 2. The budget is unbounded, so a task runs even from the log
// of a finished campaign, and each run is cancelled after its first
// merged task; each resumed run saves its log again. resumeOnce then
// reads the result through every CampaignResult helper and loads the
// saved log, and returns the sequential run's result and the resume
// error, if any.
func resumeOnce(t *testing.T, tc checkpointGoldenCase, data []byte) (*CampaignResult, error) {
	t.Helper()
	var first *CampaignResult
	for _, workers := range []int{1, 2} {
		dir := t.TempDir()
		in, out := filepath.Join(dir, "in.json"), filepath.Join(dir, "out.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg := tc.cfg
		cfg.Budget = math.MaxInt
		cfg.Workers = workers
		res, err := RunCampaignContext(ctx, cfg, harness.Config{
			ResumePath:     in,
			CheckpointPath: out,
			OnTask:         func(int) { cancel() },
		})
		if err != nil {
			return nil, err
		}
		res.UniqueBugs()
		res.BugIDs()
		res.ComponentCounts()
		res.MedianDelta()
		res.PlanFindings()
		res.FaultCounts()
		if res.CheckpointErrors > 0 {
			t.Fatalf("workers %d: resumed log did not save: %s", workers, res.LastCheckpointError)
		}
		if _, err := harness.LoadCheckpoint(out); err != nil {
			t.Fatalf("workers %d: resumed run saved an unloadable log: %v", workers, err)
		}
		if first == nil {
			first = res
		}
	}
	return first, nil
}

// FuzzResumeCheckpoint writes arbitrary bytes as a checkpoint log and
// resumes one of the golden campaigns from it (mode picks which), for
// at most one task per engine. Decoding, folding, running, reading the
// result and saving it again must not panic or hang: a log is
// untrusted input the daemon and the fleet coordinator read back after
// a crash. The seed corpus is the golden logs, each under its own
// campaign, plus testdata/fuzz/FuzzResumeCheckpoint.
func FuzzResumeCheckpoint(f *testing.F) {
	cases := checkpointGoldenCases()
	for i, tc := range cases {
		data, err := os.ReadFile(filepath.Join("testdata", "checkpoint-"+tc.name+".json"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), data)
	}
	f.Fuzz(func(t *testing.T, mode uint8, data []byte) {
		resumeOnce(t, cases[int(mode)%len(cases)], data)
	})
}

// TestResumeChecksState: resume folds every record of the log through
// the merge before any task runs, and refuses a record it cannot fold,
// naming it. Each case appends one record to a golden log; a case with
// no error resumes and runs one more task.
func TestResumeChecksState(t *testing.T) {
	cases := checkpointGoldenCases()
	off, power := cases[0], cases[3]
	for _, c := range []struct {
		name    string
		tc      checkpointGoldenCase
		record  string
		wantErr string // "" = resumes and runs a task
	}{
		{"negative state executions", off, `{"executions":-3,"delta":0}`, "negative count"},
		{"null fault", off, `{"fault":null}`, "says nothing about its task"},
		{"null finding", off, `{"executions":1,"delta":0,"findings":[null]}`, "unknown bug"},
		{"unparseable program", off, `{"executions":1,"delta":0,"findings":[{"bug_id":"JDK-8307001","oracle":"crash"}],"program":"class Broken {"}`, "finding program"},
		{"short OBV", off, `{"executions":1,"delta":0,"obv":[1]}`, "finding OBV"},
		{"unknown divergence spec", off, `{"executions":1,"delta":0,"findings":[{"bug_id":"JDK-8307001","oracle":"differential","divergence":{"modal":"nojvm-1","divergent":"openjdk-17"}}]}`, "unknown JVM"},
		{"executions overflow", off, `{"executions":9223372036854775807,"delta":0}`, "overflow"},
		{"seed error", off, `{"err":"boom"}`, ""},
		// A fault retires the seed it names; the task after it still
		// runs, and a skipped record counts as one.
		{"fault", power, `{"fault":{"class":"crash","task_id":"Alloc","seed_name":"Alloc"},"retire":true}`, ""},
		{"skipped", power, `{"skipped":true,"retire":true}`, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", "checkpoint-"+c.tc.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			ck, err := harness.DecodeCheckpoint(golden)
			if err != nil {
				t.Fatal(err)
			}
			data := append(append(golden, c.record...), '\n')
			res, err := resumeOnce(t, c.tc, data)
			if c.wantErr != "" {
				want := fmt.Sprintf("checkpoint record %d: ", len(ck.Records)+1)
				if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("resume error %v, want one naming record %d and %q", err, len(ck.Records)+1, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			// The folded counters, then one more task.
			if !res.Resumed || res.SeedsFuzzed != len(res.FinalDeltas) ||
				len(res.FinalDeltas)+len(res.SeedErrors)+len(res.Faults)+res.SkippedQuarantined < len(ck.Records)+2 {
				t.Errorf("resumed %v with %d seeds fuzzed over %d deltas, %d seed errors, %d faults, %d skipped; want the log's %d records and one more task",
					res.Resumed, res.SeedsFuzzed, len(res.FinalDeltas), len(res.SeedErrors), len(res.Faults), res.SkippedQuarantined, len(ck.Records)+1)
			}
		})
	}
}

// TestResumeRefusesOtherConfig: resume compares the log header's
// task-stream config with its own before any task runs and names the
// first field that differs; budget, workers and executor are not part
// of it.
func TestResumeRefusesOtherConfig(t *testing.T) {
	off := checkpointGoldenCases()[0]
	path := filepath.Join("testdata", "checkpoint-"+off.name+".json")
	for _, c := range []struct {
		name string
		edit func(*CampaignConfig)
		want string // "" = resumes
	}{
		{"budget and workers", func(cfg *CampaignConfig) { cfg.Budget, cfg.Workers = 200, 2 }, ""},
		{"seed source", func(cfg *CampaignConfig) {
			cfg.Seeds = append([]corpus.Seed(nil), cfg.Seeds...)
			cfg.Seeds[1].Source += " "
		}, "seeds[1].source_sha256"},
		{"target", func(cfg *CampaignConfig) { cfg.Targets = []jvm.Spec{{Impl: buginject.OpenJ9, Version: 17}} }, "targets[0]"},
		{"iterations", func(cfg *CampaignConfig) { cfg.Fuzz.MaxIterations++ }, "fuzz.max_iterations"},
		{"schedule", func(cfg *CampaignConfig) { cfg.SeedSchedule = corpus.SchedulePower }, "schedule"},
		{"generators", func(cfg *CampaignConfig) { cfg.Generators = []string{"template"} }, "generators"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := off.cfg
			c.edit(&cfg)
			tasks := 0
			_, err := RunCampaignContext(context.Background(), cfg, harness.Config{
				ResumePath: path,
				OnTask:     func(int) { tasks++ },
			})
			if c.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "checkpoint's "+c.want+" differs") {
				t.Fatalf("resume error %v, want one naming %s", err, c.want)
			}
			if tasks > 0 {
				t.Errorf("%d tasks ran before the refusal", tasks)
			}
		})
	}
}
