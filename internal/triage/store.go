package triage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/harness"
)

// storeVersion guards the on-disk record schema; records with another
// version are rejected rather than silently misread, mirroring the
// checkpoint format's versioning.
const storeVersion = 1

const (
	dataFile  = "findings.jsonl"
	indexFile = "index.json"
)

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

// record is one JSONL line. "entry" introduces (or, after compaction,
// consolidates) a signature; "sighting" adds occurrences to an existing
// one; "reduced" and "quarantined" report the reduction pipeline's
// outcome. Replaying the records in order rebuilds the entry table, so
// the log is the single source of truth and the index a disposable
// cache.
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

// index is the derived lookup structure persisted alongside the log. It
// is a pure cache: Open trusts it only when its record count matches
// the log, and rebuilds it from the log otherwise (missing, stale, or
// corrupt index files are never fatal).
type index struct {
	Version int               `json:"version"`
	Records int               `json:"records"`
	Order   []string          `json:"order"`
	Entries map[string]*Entry `json:"entries"`
}

// Store is the persistent findings database. All methods are safe for
// concurrent use; appends are single JSONL lines on an O_APPEND handle,
// so a crash mid-write loses at most the trailing partial record, which
// Open tolerates.
type Store struct {
	dir string

	mu      sync.Mutex
	f       *os.File
	entries map[string]*Entry
	order   []string // keys in first-seen order
	records int      // complete records on disk
}

// Open opens (creating if needed) the store rooted at dir and rebuilds
// its in-memory state from the index or, when that is stale, the log.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("triage: open store: %w", err)
	}
	s := &Store{dir: dir, entries: map[string]*Entry{}}
	validLen, err := s.load()
	if err != nil {
		return nil, err
	}
	if validLen >= 0 {
		// A crash left a partial trailing record; drop it so the next
		// append starts on a clean line instead of corrupting it further.
		if err := os.Truncate(s.path(dataFile), validLen); err != nil {
			return nil, fmt.Errorf("triage: trim partial record: %w", err)
		}
	}
	f, err := os.OpenFile(s.path(dataFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("triage: open store log: %w", err)
	}
	s.f = f
	return s, nil
}

func (s *Store) path(name string) string { return filepath.Join(s.dir, name) }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// load rebuilds entries from index.json when fresh, else by replaying
// findings.jsonl. It returns the byte length of the valid log prefix
// when a partial trailing record must be trimmed, and -1 otherwise.
func (s *Store) load() (validLen int64, err error) {
	data, err := os.ReadFile(s.path(dataFile))
	if os.IsNotExist(err) {
		return -1, nil
	}
	if err != nil {
		return -1, fmt.Errorf("triage: read store log: %w", err)
	}
	validLen = -1
	if n := len(data); n > 0 && data[n-1] != '\n' {
		// A crash interrupted the last append; only the complete,
		// newline-terminated prefix is trustworthy.
		validLen = int64(bytes.LastIndexByte(data, '\n') + 1)
		data = data[:validLen]
	}
	complete := bytes.Count(data, []byte{'\n'})
	if ix := s.loadIndex(); ix != nil && ix.Records == complete {
		s.entries, s.order, s.records = ix.Entries, ix.Order, ix.Records
		return validLen, nil
	}
	for i, ln := range bytes.Split(data, []byte{'\n'}) {
		if len(bytes.TrimSpace(ln)) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(ln, &rec); err != nil {
			return -1, fmt.Errorf("triage: store log record %d corrupt: %w", i+1, err)
		}
		if rec.V != storeVersion {
			return -1, fmt.Errorf("triage: store log record %d has version %d, want %d", i+1, rec.V, storeVersion)
		}
		if err := s.apply(&rec); err != nil {
			return -1, fmt.Errorf("triage: store log record %d: %w", i+1, err)
		}
		s.records++
	}
	return validLen, nil
}

func (s *Store) loadIndex() *index {
	data, err := os.ReadFile(s.path(indexFile))
	if err != nil {
		return nil
	}
	var ix index
	if err := json.Unmarshal(data, &ix); err != nil || ix.Version != storeVersion || ix.Entries == nil {
		return nil
	}
	if len(ix.Order) != len(ix.Entries) {
		return nil
	}
	for _, k := range ix.Order {
		if ix.Entries[k] == nil {
			return nil
		}
	}
	return &ix
}

// apply replays one record into the entry table. It rejects a record
// that would leave an entry with a count below 1 or a target list that
// is not a sorted set, before changing anything.
func (s *Store) apply(rec *record) error {
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
		e := *rec.Entry
		if _, exists := s.entries[e.Key]; !exists {
			s.order = append(s.order, e.Key)
		}
		s.entries[e.Key] = &e
	case "sighting":
		e := s.entries[rec.Key]
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
		e := s.entries[rec.Key]
		if e == nil {
			return fmt.Errorf("reduction for unknown key %q", rec.Key)
		}
		e.Min, e.MinStmts = rec.Program, rec.Stmts
		e.ReduceRounds, e.ReduceProbes = rec.Rounds, rec.Probes
	case "quarantined":
		e := s.entries[rec.Key]
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
	s.records++
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
	cp := *e
	return &cp
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
		cp := *s.entries[k]
		out = append(out, &cp)
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
// signature (atomically: temp file + rename) and refreshes the index.
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
	if err := harness.WriteFileAtomic(s.path(dataFile), buf.Bytes()); err != nil {
		return fmt.Errorf("triage: compact write: %w", err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("triage: compact reopen: %w", err)
	}
	f, err := os.OpenFile(s.path(dataFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("triage: compact reopen: %w", err)
	}
	s.f = f
	s.records = len(s.order)
	return s.writeIndex()
}

// Merge folds another store's entries into this one: novel signatures
// are appended whole (counts, sighting range, and reduction preserved);
// known ones merge their occurrence counts, targets, and — when this
// store lacks one — the minimized reproducer. Returns the number of
// novel signatures added.
func (s *Store) Merge(src *Store) (added int, err error) {
	for _, e := range src.Entries() {
		s.mu.Lock()
		dst, known := s.entries[e.Key]
		if !known {
			if err := s.append(&record{Kind: "entry", Entry: e}); err != nil {
				s.mu.Unlock()
				return added, err
			}
			added++
			s.mu.Unlock()
			continue
		}
		last := e.Last
		if err := s.append(&record{Kind: "sighting", Key: e.Key, Count: e.Count, Occ: &last, Targets: e.Targets}); err != nil {
			s.mu.Unlock()
			return added, err
		}
		needMin := dst.Min == "" && e.Min != ""
		s.mu.Unlock()
		if needMin {
			if err := s.Reduced(e.Key, e.Min, e.MinStmts, e.ReduceRounds, e.ReduceProbes); err != nil {
				return added, err
			}
		}
	}
	return added, nil
}

// Flush persists the index cache. The log is always durable (every
// append hits the file); flushing only speeds up the next Open.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeIndex()
}

// Close flushes the index and releases the log handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	werr := s.writeIndex()
	cerr := s.f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// writeIndex persists the derived index atomically. Callers hold s.mu.
func (s *Store) writeIndex() error {
	ix := index{Version: storeVersion, Records: s.records, Order: s.order, Entries: s.entries}
	data, err := json.MarshalIndent(&ix, "", "  ")
	if err != nil {
		return fmt.Errorf("triage: encode index: %w", err)
	}
	if err := harness.WriteFileAtomic(s.path(indexFile), data); err != nil {
		return fmt.Errorf("triage: write index: %w", err)
	}
	return nil
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
