package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/harness"
)

// JobStore persists job records under a state directory:
//
//	<dir>/jobs/<id>/job.json         versioned job record
//	<dir>/jobs/<id>/checkpoint.json  harness campaign checkpoint
//	<dir>/jobs/<id>/triage/          per-job triage store
//	<dir>/jobs/<id>/quarantine/      pathological mutants
//
// Records are written atomically (temp file + rename), so a daemon
// killed mid-write leaves the previous record intact; the campaign
// checkpoint machinery gives the same guarantee for run state, which is
// what makes restart-resume safe.
type JobStore struct {
	dir string
}

// OpenJobStore opens (creating if needed) the store rooted at dir.
func OpenJobStore(dir string) (*JobStore, error) {
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("service: open job store: %w", err)
	}
	return &JobStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (st *JobStore) Dir() string { return st.dir }

// JobDir returns the directory owning one job's artifacts.
func (st *JobStore) JobDir(id string) string { return filepath.Join(st.dir, "jobs", id) }

// CheckpointPath returns the job's campaign checkpoint file.
func (st *JobStore) CheckpointPath(id string) string {
	return filepath.Join(st.JobDir(id), "checkpoint.json")
}

// ScoreCachePath returns the job's persisted seed-score cache — the
// corpus feature vectors a resumed power-schedule campaign reloads
// instead of re-profiling its pool.
func (st *JobStore) ScoreCachePath(id string) string {
	return filepath.Join(st.JobDir(id), "scores.json")
}

// TriageDir returns the job's triage store directory.
func (st *JobStore) TriageDir(id string) string { return filepath.Join(st.JobDir(id), "triage") }

// QuarantineDir returns the job's quarantine directory.
func (st *JobStore) QuarantineDir(id string) string {
	return filepath.Join(st.JobDir(id), "quarantine")
}

// Paths returns the job's campaign state layout, resuming from its
// checkpoint when one exists.
func (st *JobStore) Paths(id string) Paths {
	p := Paths{
		Checkpoint: st.CheckpointPath(id),
		ScoreCache: st.ScoreCachePath(id),
		Triage:     st.TriageDir(id),
		Quarantine: st.QuarantineDir(id),
	}
	if st.HasCheckpoint(id) {
		p.Resume = p.Checkpoint
	}
	return p
}

// Save persists a job record atomically.
func (st *JobStore) Save(rec *jobRecord) error {
	rec.Version = jobVersion
	if rec.ID == "" {
		return fmt.Errorf("service: save job: empty id")
	}
	if err := os.MkdirAll(st.JobDir(rec.ID), 0o755); err != nil {
		return fmt.Errorf("service: save job %s: %w", rec.ID, err)
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("service: encode job %s: %w", rec.ID, err)
	}
	if err := harness.WriteFileAtomic(filepath.Join(st.JobDir(rec.ID), "job.json"), append(data, '\n')); err != nil {
		return fmt.Errorf("service: write job %s: %w", rec.ID, err)
	}
	return nil
}

// Load reads and validates one job record.
func (st *JobStore) Load(id string) (*jobRecord, error) {
	data, err := os.ReadFile(filepath.Join(st.JobDir(id), "job.json"))
	if err != nil {
		return nil, fmt.Errorf("service: load job %s: %w", id, err)
	}
	var rec jobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("service: decode job %s: %w", id, err)
	}
	if rec.Version != jobVersion {
		return nil, fmt.Errorf("service: job %s record version %d, want %d", id, rec.Version, jobVersion)
	}
	if rec.ID != id {
		return nil, fmt.Errorf("service: job record in %s names id %q", id, rec.ID)
	}
	return &rec, nil
}

// LoadAll reads every job record, sorted by ID (submission order, since
// IDs are a zero-padded sequence). A record that fails to load — a
// corrupt or truncated job.json, a version mismatch — does not fail the
// whole scan: its job directory is moved aside to
// <dir>/jobs-quarantined/<id> (artifacts preserved for forensics) and
// its ID is reported in quarantined, so one bad record cannot keep a
// daemon restart from resuming every healthy job.
func (st *JobStore) LoadAll() (recs []*jobRecord, quarantined []string, err error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, "jobs"))
	if err != nil {
		return nil, nil, fmt.Errorf("service: scan job store: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		rec, err := st.Load(e.Name())
		if err != nil {
			if qerr := st.quarantineJobDir(e.Name()); qerr != nil {
				// Can't even move it aside: now startup must stop, or the
				// same record would poison every restart.
				return nil, nil, fmt.Errorf("service: quarantine job %s (%v): %w", e.Name(), err, qerr)
			}
			quarantined = append(quarantined, e.Name())
			continue
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, k int) bool { return recs[i].ID < recs[k].ID })
	sort.Strings(quarantined)
	return recs, quarantined, nil
}

// quarantineJobDir moves a job's directory under jobs-quarantined/.
func (st *JobStore) quarantineJobDir(id string) error {
	qdir := filepath.Join(st.dir, "jobs-quarantined")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return err
	}
	dst := filepath.Join(qdir, id)
	// A leftover from an earlier quarantine of the same ID must not block
	// this one; the newest evidence wins.
	_ = os.RemoveAll(dst)
	return os.Rename(st.JobDir(id), dst)
}

// QuarantineCheckpoint sets a job's corrupt campaign checkpoint aside
// as checkpoint.json.corrupt, so the record itself survives (marked
// quarantined by the scheduler) and the bad log is preserved for
// inspection instead of being retried on every restart.
func (st *JobStore) QuarantineCheckpoint(id string) error {
	path := st.CheckpointPath(id)
	return os.Rename(path, path+".corrupt")
}

// NextID returns the first unused sequence ID after the given records.
func NextID(recs []*jobRecord) int {
	next := 1
	for _, r := range recs {
		if n, ok := seqOf(r.ID); ok && n >= next {
			next = n + 1
		}
	}
	return next
}

// FormatID renders a sequence number as a job ID ("job-0001").
func FormatID(n int) string { return fmt.Sprintf("job-%04d", n) }

func seqOf(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// HasCheckpoint reports whether a campaign checkpoint exists for id.
func (st *JobStore) HasCheckpoint(id string) bool {
	_, err := os.Stat(st.CheckpointPath(id))
	return err == nil
}
