package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/triage"
)

// fullRecord populates every field of the wire schema, so the
// round-trip test fails if a field is added without a JSON tag (or
// dropped by the encoder).
func fullRecord() *jobRecord {
	return &jobRecord{
		Version: jobVersion,
		ID:      "job-0042",
		Spec: core.JobSpec{
			Name:       "nightly",
			Targets:    []string{"openjdk-17", "graal-21"},
			SeedCount:  4,
			Seeds:      []core.SeedSpec{{Name: "User0001", Source: "class U { static void main() { print(1); } }"}},
			Budget:     500,
			Iterations: 30,
			Seed:       9,
			Workers:    2,
			Backend:    "pool",
			Extended:   true,
			HeapLimit:  50_000,
		},
		State:    StateDone,
		Created:  100,
		Started:  110,
		Finished: 120,
		Resumes:  2,
		Error:    "",
		Result: &ResultSummary{
			Executions:  500,
			SeedsFuzzed: 10,
			UniqueBugs:  1,
			Findings: []FindingSummary{{
				BugID: "HS-1", Component: "jit", Kind: "miscompile", Oracle: "differential",
				SeedName: "Seed0001", Target: "openjdk-17", AtExecution: 44, Cursor: 3, Round: 2, ChainLen: 5,
			}},
			FaultsByClass: map[string]int{"timeout": 1},
			SeedErrors:    1,
			MedianDelta:   3.5,
		},
		Triage: &TriageStats{Received: 6, Novel: 1, Duplicates: 5, Reduced: 1, Quarantined: 1, Errors: 0},
	}
}

func TestJobRecordRoundTrip(t *testing.T) {
	st, err := OpenJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := fullRecord()
	if err := st.Save(want); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load(want.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestJobRecordVersionMismatchRejected(t *testing.T) {
	st, err := OpenJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := fullRecord()
	if err := st.Save(rec); err != nil {
		t.Fatal(err)
	}
	// Rewrite the record with a future schema version.
	path := filepath.Join(st.JobDir(rec.ID), "job.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["version"] = 99
	data, _ = json.Marshal(raw)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(rec.ID); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Errorf("Load of version-99 record: err = %v, want version rejection", err)
	}
	// LoadAll must not silently load the record — it quarantines the
	// job directory and reports the ID, so startup survives.
	recs, quarantined, err := st.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if len(recs) != 0 {
		t.Errorf("LoadAll loaded %d records from a version-99 store, want 0", len(recs))
	}
	if len(quarantined) != 1 || quarantined[0] != rec.ID {
		t.Errorf("LoadAll quarantined = %v, want [%s]", quarantined, rec.ID)
	}
	if _, err := os.Stat(st.JobDir(rec.ID)); !os.IsNotExist(err) {
		t.Errorf("job dir still present after quarantine (stat err %v)", err)
	}
	if _, err := os.Stat(filepath.Join(st.Dir(), "jobs-quarantined", rec.ID, "job.json")); err != nil {
		t.Errorf("quarantined record not preserved: %v", err)
	}
}

func TestJobRecordIDMismatchRejected(t *testing.T) {
	st, err := OpenJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := fullRecord()
	if err := st.Save(rec); err != nil {
		t.Fatal(err)
	}
	// A record copied into the wrong directory must not load.
	other := st.JobDir("job-0099")
	if err := os.MkdirAll(other, 0o755); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(filepath.Join(st.JobDir(rec.ID), "job.json"))
	if err := os.WriteFile(filepath.Join(other, "job.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("job-0099"); err == nil {
		t.Error("Load accepted a record naming a different job ID")
	}
}

func TestNextIDAndFormat(t *testing.T) {
	if got := FormatID(7); got != "job-0007" {
		t.Errorf("FormatID(7) = %q", got)
	}
	recs := []*jobRecord{{ID: "job-0003"}, {ID: "job-0001"}, {ID: "not-a-job"}}
	if got := NextID(recs); got != 4 {
		t.Errorf("NextID = %d, want 4", got)
	}
	if got := NextID(nil); got != 1 {
		t.Errorf("NextID(nil) = %d, want 1", got)
	}
}

func TestJobSpecValidateDefaults(t *testing.T) {
	spec := core.JobSpec{}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if spec.Budget != 1000 || spec.Iterations != 50 || spec.SeedCount != 8 || spec.Seed != 1 {
		t.Errorf("defaults not applied: %+v", spec)
	}
	if len(spec.Targets) != 1 || spec.Targets[0] != "openjdk-17" {
		t.Errorf("default target = %v", spec.Targets)
	}
	// A job with only user seeds does not get generated ones forced in.
	spec = core.JobSpec{Seeds: []core.SeedSpec{{Source: "class U { static void main() { print(1); } }"}}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if spec.SeedCount != 0 {
		t.Errorf("SeedCount = %d, want 0 when user seeds are supplied", spec.SeedCount)
	}
	if spec.Seeds[0].Name != "User0001" {
		t.Errorf("auto seed name = %q", spec.Seeds[0].Name)
	}
	if got := len(spec.Pool()); got != 1 {
		t.Errorf("pool size = %d, want 1", got)
	}
}

func TestJobSpecValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		spec core.JobSpec
		want string
	}{
		{"negative budget", core.JobSpec{Budget: -1}, "budget"},
		{"negative iterations", core.JobSpec{Iterations: -1}, "iterations"},
		{"negative seed count", core.JobSpec{SeedCount: -1}, "seed_count"},
		{"negative workers", core.JobSpec{Workers: -1}, "workers"},
		// Either would panic or exhaust memory in the runner goroutine
		// (the parallel engine's window, the generated pool's capacity).
		{"too many workers", core.JobSpec{Workers: 1 << 62}, "workers must be at most 1024"},
		{"too many seeds", core.JobSpec{SeedCount: 2_000_000_000}, "seed_count must be at most 10000"},
		{"unknown target", core.JobSpec{Targets: []string{"no-such-jvm"}}, "target"},
		{"unknown backend", core.JobSpec{Backend: "quantum"}, "backend"},
		{"retired backend", core.JobSpec{Backend: "subprocess"}, "-pool-recycle-after 1"},
		{"empty seed", core.JobSpec{Seeds: []core.SeedSpec{{Name: "S"}}}, "empty source"},
		{"malformed seed", core.JobSpec{Seeds: []core.SeedSpec{{Name: "S", Source: "class {"}}}, "seed"},
		{"unknown generator", core.JobSpec{Generators: []string{"quantum"}}, "generators"},
		{"unknown style", core.JobSpec{Generators: []string{"style"}, Styles: []string{"no-such-style"}}, "generators"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestParentJobRecordDecodesUnchanged reads a job.json written by an
// earlier daemon build (every spec field set, run to done): the record
// still decodes, its spec validates to itself, and it re-encodes to the
// same bytes, so moving the spec type changed nothing on disk.
func TestParentJobRecordDecodesUnchanged(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "job-parent.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec jobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	spec := copySpec(rec.Spec)
	if err := spec.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !reflect.DeepEqual(spec, rec.Spec) {
		t.Errorf("Validate changed the stored spec:\n got %+v\nwant %+v", spec, rec.Spec)
	}
	out, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != strings.TrimSuffix(string(data), "\n") {
		t.Errorf("re-encoded record differs from the stored one:\n%s", out)
	}
}

// TestJobViewMatchesParent pins the API rendering: the JobView of the
// stored record encodes to the bytes an earlier build produced for it.
func TestJobViewMatchesParent(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "job-parent.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "jobview-parent.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec jobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	j := &Job{rec: rec}
	got, err := json.Marshal(j.View())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("JobView JSON differs from the earlier build's:\n got %s\nwant %s", got, want)
	}
}

// TestJobViewCopiesTriage: a JobView keeps the triage counts it was
// taken with when the job's record adds a run segment's counts later.
func TestJobViewCopiesTriage(t *testing.T) {
	j := &Job{rec: jobRecord{ID: "job-0001", Triage: &TriageStats{Received: 2}}}
	v := j.View()
	liveJob{j: j}.Detach(triage.Stats{Received: 3})
	if v.Triage.Received != 2 || j.View().Triage.Received != 5 {
		t.Errorf("view taken before the detach reads %d received, the record %d; want 2 and 5",
			v.Triage.Received, j.View().Triage.Received)
	}
}
