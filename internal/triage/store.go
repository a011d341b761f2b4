package triage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"repro/internal/harness"
)

// storeVersion guards the on-disk record schema; records with another
// version are rejected rather than silently misread, mirroring the
// checkpoint format's versioning.
const storeVersion = 1

// dataFile is the store's log, its only file.
const dataFile = "findings.jsonl"

// LogPath returns the path of the log of the store rooted at dir: the
// bytes a fleet worker uploads and MergeLog folds in.
func LogPath(dir string) string { return filepath.Join(dir, dataFile) }

// Occurrence is one sighting of a signature: where in which campaign
// the finding surfaced.
type Occurrence struct {
	SeedName    string `json:"seed"`
	Target      string `json:"target"`
	Round       int    `json:"round"`
	Cursor      int    `json:"cursor"`
	AtExecution int    `json:"at_execution"`
	// GeneratorID names the generator that emitted the seed ("template",
	// "style:<name>", ...). Empty for baseline-pool seeds, keeping
	// pre-generator records byte-identical.
	GeneratorID string `json:"generator_id,omitempty"`
	ChainLen    int    `json:"chain_len"`
	// Time is a Unix timestamp for human-facing first/last-seen; the
	// worker's clock seam keeps it deterministic under test.
	Time int64 `json:"time,omitempty"`
}

// Entry is the aggregated state of one signature: counts, sighting
// range, affected targets, the raw reproducer, and — once the reduction
// pipeline has run — the minimized one.
type Entry struct {
	Key     string     `json:"key"`
	Sig     Signature  `json:"sig"`
	Count   int        `json:"count"`
	First   Occurrence `json:"first"`
	Last    Occurrence `json:"last"`
	Targets []string   `json:"targets"` // sorted set of spec names
	// Raw is the unreduced reproducer (first sighting's mutant).
	Raw      string  `json:"raw,omitempty"`
	RawStmts int     `json:"raw_stmts,omitempty"`
	OBV      []int64 `json:"obv,omitempty"`
	// Min is the minimized reproducer; empty until reduction succeeds.
	Min          string `json:"min,omitempty"`
	MinStmts     int    `json:"min_stmts,omitempty"`
	ReduceRounds int    `json:"reduce_rounds,omitempty"`
	ReduceProbes int    `json:"reduce_probes,omitempty"`
	// Quarantine notes a reduction the harness had to contain (panic,
	// watchdog timeout); the entry keeps its raw reproducer.
	Quarantine string `json:"quarantine,omitempty"`
}

// clone copies e without sharing its slices, so a caller cannot change
// the store's entry and a later sighting cannot change the caller's.
func (e *Entry) clone() *Entry {
	cp := *e
	cp.Targets = slices.Clone(e.Targets)
	cp.OBV = slices.Clone(e.OBV)
	return &cp
}

// record is one JSONL line. "entry" introduces (or, after compaction,
// consolidates) a signature; "sighting" adds occurrences to an existing
// one; "reduced" and "quarantined" report the reduction pipeline's
// outcome. Replaying the records in order rebuilds the entry table, so
// the log is the store's only source.
type record struct {
	V       int         `json:"v"`
	Kind    string      `json:"kind"`
	Key     string      `json:"key,omitempty"`
	Entry   *Entry      `json:"entry,omitempty"`
	Occ     *Occurrence `json:"occ,omitempty"`
	Count   int         `json:"count,omitempty"`
	Targets []string    `json:"targets,omitempty"`
	Program string      `json:"program,omitempty"`
	Stmts   int         `json:"stmts,omitempty"`
	Rounds  int         `json:"rounds,omitempty"`
	Probes  int         `json:"probes,omitempty"`
	Note    string      `json:"note,omitempty"`
}

// table is the entry table a log replays into.
type table struct {
	entries map[string]*Entry
	order   []string // keys in first-seen order
}

// replayLog decodes a log into a fresh table. Only the log's whole
// lines count (harness.WholeLines): a crash mid-append leaves a partial
// trailing record, which is skipped. Every record must decode, carry
// storeVersion and pass apply's checks; the first that does not fails
// the replay, named by its line number.
func replayLog(data []byte) (*table, error) {
	t := &table{entries: map[string]*Entry{}}
	for i, ln := range bytes.Split(harness.WholeLines(data), []byte{'\n'}) {
		if len(bytes.TrimSpace(ln)) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(ln, &rec); err != nil {
			return nil, fmt.Errorf("triage: store log record %d corrupt: %w", i+1, err)
		}
		if rec.V != storeVersion {
			return nil, fmt.Errorf("triage: store log record %d has version %d, want %d", i+1, rec.V, storeVersion)
		}
		if err := t.apply(&rec); err != nil {
			return nil, fmt.Errorf("triage: store log record %d: %w", i+1, err)
		}
	}
	return t, nil
}

// Store is the persistent findings database: an append-only JSONL log,
// replayed into memory on Open. All methods are safe for concurrent
// use; appends are single JSONL lines on an O_APPEND handle, so a crash
// mid-write loses at most the trailing partial record, which Open
// tolerates.
type Store struct {
	dir string

	mu sync.Mutex
	f  *os.File
	table
}

// Open opens (creating if needed) the store rooted at dir and rebuilds
// its in-memory state by replaying the log.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("triage: open store: %w", err)
	}
	var t *table
	f, err := harness.OpenLog(LogPath(dir), func(whole []byte) (err error) {
		t, err = replayLog(whole)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Store{dir: dir, f: f, table: *t}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// apply replays one record into the entry table. It rejects a record
// that would leave an entry with a count below 1 or a target list that
// is not a sorted set, before changing anything.
func (t *table) apply(rec *record) error {
	switch rec.Kind {
	case "entry":
		if rec.Entry == nil || rec.Entry.Key == "" {
			return fmt.Errorf("entry record without entry")
		}
		if rec.Entry.Count < 1 {
			return fmt.Errorf("entry %q has count %d, want at least 1", rec.Entry.Key, rec.Entry.Count)
		}
		if !sortedSet(rec.Entry.Targets) {
			return fmt.Errorf("entry %q targets %q are not sorted and unique", rec.Entry.Key, rec.Entry.Targets)
		}
		e := rec.Entry.clone()
		if _, exists := t.entries[e.Key]; !exists {
			t.order = append(t.order, e.Key)
		}
		t.entries[e.Key] = e
	case "sighting":
		e := t.entries[rec.Key]
		if e == nil {
			return fmt.Errorf("sighting for unknown key %q", rec.Key)
		}
		n := rec.Count
		if n < 0 {
			return fmt.Errorf("sighting for %q has count %d", rec.Key, n)
		}
		if n == 0 {
			n = 1
		}
		if e.Count > math.MaxInt-n {
			return fmt.Errorf("sighting for %q overflows its count %d", rec.Key, e.Count)
		}
		e.Count += n
		if rec.Occ != nil {
			e.Last = *rec.Occ
			e.Targets = addTarget(e.Targets, rec.Occ.Target)
		}
		for _, t := range rec.Targets {
			e.Targets = addTarget(e.Targets, t)
		}
	case "reduced":
		e := t.entries[rec.Key]
		if e == nil {
			return fmt.Errorf("reduction for unknown key %q", rec.Key)
		}
		e.Min, e.MinStmts = rec.Program, rec.Stmts
		e.ReduceRounds, e.ReduceProbes = rec.Rounds, rec.Probes
	case "quarantined":
		e := t.entries[rec.Key]
		if e == nil {
			return fmt.Errorf("quarantine for unknown key %q", rec.Key)
		}
		e.Quarantine = rec.Note
	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	return nil
}

// append writes one record to the log and replays it in memory.
func (s *Store) append(rec *record) error {
	rec.V = storeVersion
	if err := s.apply(rec); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("triage: encode record: %w", err)
	}
	if _, err := s.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("triage: append record: %w", err)
	}
	return nil
}

// Observe records one finding occurrence. The first sighting of a
// signature appends a full entry (with the raw reproducer) and returns
// novel=true — the caller's cue to run reduction; later sightings
// append a lightweight occurrence and return novel=false.
func (s *Store) Observe(sig Signature, occ Occurrence, raw string, rawStmts int, obv []int64) (novel bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := sig.Key()
	if _, ok := s.entries[key]; ok {
		return false, s.append(&record{Kind: "sighting", Key: key, Occ: &occ})
	}
	e := &Entry{
		Key: key, Sig: sig, Count: 1,
		First: occ, Last: occ,
		Targets:  []string{occ.Target},
		Raw:      raw,
		RawStmts: rawStmts,
		OBV:      obv,
	}
	return true, s.append(&record{Kind: "entry", Entry: e})
}

// Reduced stores the minimized reproducer for a signature.
func (s *Store) Reduced(key, program string, stmts, rounds, probes int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.append(&record{Kind: "reduced", Key: key, Program: program, Stmts: stmts, Rounds: rounds, Probes: probes})
}

// Quarantine notes that reduction for the signature was contained by
// the harness (panic or watchdog timeout); the entry keeps its raw
// reproducer.
func (s *Store) Quarantine(key, note string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.append(&record{Kind: "quarantined", Key: key, Note: note})
}

// Get returns a copy of the entry for key, or nil.
func (s *Store) Get(key string) *Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		return nil
	}
	return e.clone()
}

// Len reports the number of distinct signatures.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Entries returns entry copies in first-seen order.
func (s *Store) Entries() []*Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Entry, 0, len(s.order))
	for _, k := range s.order {
		out = append(out, s.entries[k].clone())
	}
	return out
}

// MinimizedPrograms yields the reduced reproducer of every successfully
// minimized finding, in first-seen order, invoking fn with the entry
// key and the minimized source. Quarantined and not-yet-reduced entries
// are skipped. This is the template-mining feed: callers get the
// store's minimized corpus without re-reading the JSONL log by hand,
// and the deterministic order keeps template sets reproducible.
// Iteration stops early when fn returns false.
func (s *Store) MinimizedPrograms(fn func(key, program string) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range s.order {
		e := s.entries[k]
		if e.Min == "" || e.Quarantine != "" {
			continue
		}
		if !fn(k, e.Min) {
			return
		}
	}
}

// Compact rewrites the log to one consolidated entry record per
// signature (atomically: temp file + rename).
// Sighting trails from long campaigns collapse; nothing observable
// through Entries changes.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf bytes.Buffer
	for _, k := range s.order {
		line, err := json.Marshal(&record{V: storeVersion, Kind: "entry", Entry: s.entries[k]})
		if err != nil {
			return fmt.Errorf("triage: compact encode: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if err := harness.WriteFileAtomic(LogPath(s.dir), buf.Bytes()); err != nil {
		return fmt.Errorf("triage: compact write: %w", err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("triage: compact reopen: %w", err)
	}
	f, err := os.OpenFile(LogPath(s.dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("triage: compact reopen: %w", err)
	}
	s.f = f
	return nil
}

// MergeLog folds another store's log into this one. The log replays
// exactly as Open replays a store's own (its newline-terminated prefix,
// every record checked), and an invalid log merges nothing. Then novel
// signatures are appended whole (counts, sighting range, and reduction
// preserved); known ones merge their occurrence counts, targets, and —
// when this store lacks one — the minimized reproducer. Returns the
// number of novel signatures added.
func (s *Store) MergeLog(data []byte) (added int, err error) {
	src, err := replayLog(data)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range src.order {
		e := src.entries[k]
		dst, known := s.entries[k]
		if !known {
			if err := s.append(&record{Kind: "entry", Entry: e}); err != nil {
				return added, err
			}
			added++
			continue
		}
		last := e.Last
		if err := s.append(&record{Kind: "sighting", Key: k, Count: e.Count, Occ: &last, Targets: e.Targets}); err != nil {
			return added, err
		}
		if dst.Min == "" && e.Min != "" {
			if err := s.append(&record{Kind: "reduced", Key: k, Program: e.Min, Stmts: e.MinStmts, Rounds: e.ReduceRounds, Probes: e.ReduceProbes}); err != nil {
				return added, err
			}
		}
	}
	return added, nil
}

// Close releases the log handle. Every append already reached the log.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// sortedSet reports whether ts is strictly increasing.
func sortedSet(ts []string) bool {
	for i := 1; i < len(ts); i++ {
		if ts[i-1] >= ts[i] {
			return false
		}
	}
	return true
}

func addTarget(ts []string, t string) []string {
	if t == "" {
		return ts
	}
	i := sort.SearchStrings(ts, t)
	if i < len(ts) && ts[i] == t {
		return ts
	}
	ts = append(ts, "")
	copy(ts[i+1:], ts[i:])
	ts[i] = t
	return ts
}
