package core

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

// resumeOnce writes data as a checkpoint and resumes the golden campaign
// tc from it. The budget is unbounded, so a task runs even from the
// checkpoint of a finished campaign, and the run is cancelled after its
// first task, so at most one runs; the resumed run saves its state
// again. resumeOnce then reads the result through every CampaignResult
// helper and loads the saved checkpoint, and returns the resume error,
// if any.
func resumeOnce(t *testing.T, tc checkpointGoldenCase, data []byte) (*CampaignResult, error) {
	t.Helper()
	dir := t.TempDir()
	in, out := filepath.Join(dir, "in.json"), filepath.Join(dir, "out.json")
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := tc.cfg
	cfg.Budget = math.MaxInt
	cfg.Fuzz.MaxIterations = 4
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
		t.Fatalf("resumed state did not save: %s", res.LastCheckpointError)
	}
	if _, err := harness.LoadCheckpoint(out); err != nil {
		t.Fatalf("resumed state saved an unloadable checkpoint: %v", err)
	}
	return res, nil
}

// FuzzResumeCheckpoint writes arbitrary bytes as a checkpoint and
// resumes one of the golden campaigns from it (mode picks which), for
// at most one task. Decoding, restoring, running, reading the result
// and saving it again must not panic: a checkpoint is untrusted input
// the daemon and the fleet coordinator read back after a crash. The
// seed corpus is the golden checkpoints, each under its own campaign,
// plus testdata/fuzz/FuzzResumeCheckpoint.
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

// TestResumeChecksState: resume reads the task cursor and the execution
// count from the checkpoint's envelope, which DecodeCheckpoint checks,
// and rejects campaign state it cannot use before the campaign runs.
// Each case sets keys of a golden checkpoint's state (dotted paths into
// the JSON) and saves it again, stamped with the current version.
func TestResumeChecksState(t *testing.T) {
	cases := checkpointGoldenCases()
	off, feature := cases[0], cases[1]
	for _, c := range []struct {
		name    string
		tc      checkpointGoldenCase
		set     map[string]string // dotted path -> JSON value
		wantErr string            // "" = resumes and runs a task
	}{
		// Restored from the state, a cursor of -3 ran its task and
		// saved -2, which no decoder accepts; without the cancel the
		// next task indexed the seed pool at -2.
		{"negative state cursor", off, map[string]string{"task_cursor": "-3"}, ""},
		{"negative state executions", off, map[string]string{"executions": "-3"}, ""},
		{"null fault", off, map[string]string{"faults": "[null]"}, "fault 0 is null"},
		{"null finding", off, map[string]string{"findings": "[null]"}, "unknown bug"},
		// A negative last round made the refresh fill pool slot -4.
		{"generator round far behind", feature, map[string]string{"generate.last_round": "-1000000"}, "last refreshed round -1000000"},
		{"generator round ahead", feature, map[string]string{"generate.last_round": "3"}, "last refreshed round 3"},
		// The golden's cursor starts round 2: its refresh, still due,
		// counts emissions in a map the state left out.
		{"generator refresh due, null emissions", feature,
			map[string]string{"generate.last_round": "1", "generate.emitted": "null"}, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			golden, err := harness.LoadCheckpoint(filepath.Join("testdata", "checkpoint-"+c.tc.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var st map[string]any
			if err := json.Unmarshal(golden.State, &st); err != nil {
				t.Fatal(err)
			}
			for path, value := range c.set {
				keys := strings.Split(path, ".")
				m := st
				for _, k := range keys[:len(keys)-1] {
					m = m[k].(map[string]any)
				}
				var v any
				if err := json.Unmarshal([]byte(value), &v); err != nil {
					t.Fatal(err)
				}
				m[keys[len(keys)-1]] = v
			}
			ck := *golden
			if ck.State, err = json.Marshal(st); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "ck.json")
			if err := ck.Save(path); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := resumeOnce(t, c.tc, data)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("resume error %v, want one naming %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			// The envelope's counters, then one more task.
			if !res.Resumed || res.Executions <= golden.Executions || res.SeedsFuzzed != len(res.FinalDeltas) {
				t.Errorf("resumed %v with %d executions and %d seeds fuzzed over %d deltas, want more than the envelope's %d executions",
					res.Resumed, res.Executions, res.SeedsFuzzed, len(res.FinalDeltas), golden.Executions)
			}
		})
	}
}
