package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Quarantine persists pathological mutants (panic / hang /
// heap-exhaustion triggers) with their fault reports. Quarantined task
// IDs are skipped on retry: a mutant that kills the substrate once
// must not be allowed to kill every subsequent round, but it is kept
// on disk as a first-class finding artifact.
//
// Layout: one JSON file per fault under Dir, named after the sanitized
// task ID. Opening a quarantine re-reads the directory, so the index
// survives process restarts.
// Safe for concurrent use: parallel workers pre-check Get while the
// merge stage Adds entries for earlier tasks.
type Quarantine struct {
	mu    sync.Mutex
	dir   string
	index map[string]*Fault
}

// OpenQuarantine opens (creating if needed) the store at dir and loads
// any existing entries. An empty dir yields an in-memory-only store:
// skip semantics still work within the run, nothing is persisted.
func OpenQuarantine(dir string) (*Quarantine, error) {
	q := &Quarantine{dir: dir, index: map[string]*Fault{}}
	if dir == "" {
		return q, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: quarantine dir: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("harness: quarantine dir: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			continue // a torn entry must not block the campaign
		}
		var f Fault
		if err := json.Unmarshal(data, &f); err != nil || f.TaskID == "" {
			continue
		}
		f.QuarantinePath = path
		q.index[f.TaskID] = &f
	}
	return q, nil
}

// Add stores the fault, writing it to disk when the store is backed by
// a directory, and records the resulting path on the fault.
func (q *Quarantine) Add(f *Fault) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.index[f.TaskID] = f
	if q.dir == "" {
		return nil
	}
	path := filepath.Join(q.dir, sanitizeID(f.TaskID)+".json")
	f.QuarantinePath = path
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, data)
}

// Get returns the stored fault for a task ID, or nil.
func (q *Quarantine) Get(id string) *Fault {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.index[id]
}

// Mark indexes f under its task ID, unless that ID is quarantined
// already, without writing anything: resume rebuilds the index of the
// faults its log merged this way, since a run without a quarantine
// directory kept them in memory only.
func (q *Quarantine) Mark(f *Fault) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.index[f.TaskID] == nil {
		q.index[f.TaskID] = f
	}
}

// Len reports the number of quarantined entries.
func (q *Quarantine) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.index)
}

// Dir exposes the backing directory ("" when memory-only).
func (q *Quarantine) Dir() string { return q.dir }

// sanitizeID maps a task ID onto a safe file stem.
func sanitizeID(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, id)
}

// WriteFileAtomic writes data to path via path+".tmp" and a rename, so
// a crash mid-write never leaves a torn file for a reader to trip over.
// It does not fsync: callers write checkpoints per task and want the
// rename's atomicity, not durability across power loss.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
