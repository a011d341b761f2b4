package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// CheckpointVersion guards the log format. There is one live version:
// the header line always carries it and decoding accepts nothing else,
// so a log is never silently misread.
const CheckpointVersion = 6

// Checkpoint is a campaign's task log: one header line, then one line
// per merged task, in cursor order. The campaign owns the contents of
// both: the header says what the task stream derives from, and a record
// says what merging one task changed. Resume folds the records through
// the campaign's own merge, so the cursor is the record count and every
// counter is rebuilt, not read.
type Checkpoint struct {
	Header  json.RawMessage
	Records []json.RawMessage
}

// headerLine is the log's first line: the format version around the
// campaign's header.
type headerLine struct {
	Version int             `json:"version"`
	Header  json.RawMessage `json:"header"`
}

// Save writes the whole log, one JSON value per line, atomically (temp
// file + rename), so an interruption mid-write leaves the previous file
// intact.
func (c *Checkpoint) Save(path string) error {
	data, err := json.Marshal(headerLine{Version: CheckpointVersion, Header: c.Header})
	if err != nil {
		return fmt.Errorf("harness: checkpoint encode: %w", err)
	}
	data = append(data, '\n')
	for i, rec := range c.Records {
		if len(rec) == 0 || bytes.IndexByte(rec, '\n') >= 0 {
			return fmt.Errorf("harness: checkpoint record %d is not one line", i+1)
		}
		data = append(append(data, rec...), '\n')
	}
	if err := WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("harness: checkpoint write: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and validates a log.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("harness: checkpoint read: %w", err)
	}
	return DecodeCheckpoint(data)
}

// DecodeCheckpoint validates a serialized log: the same checks
// LoadCheckpoint applies, reusable for logs that arrive over the wire
// (fleet checkpoint handoff) instead of from a file. Only the log's
// whole lines count: a torn last record, which a crash mid-append
// leaves, is dropped. The header must carry the live version and every
// whole record must be JSON.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	lines := bytes.Split(WholeLines(data), []byte{'\n'})
	lines = lines[:len(lines)-1] // the empty string after the last newline
	var h headerLine
	err := fmt.Errorf("harness: checkpoint decode: no whole header line")
	if len(lines) > 0 {
		if err = json.Unmarshal(lines[0], &h); err != nil {
			err = fmt.Errorf("harness: checkpoint decode: header: %w", err)
		}
	}
	if err != nil {
		// Builds before v6 wrote one indented JSON snapshot, not a log.
		if json.Unmarshal(data, &h) != nil || h.Version <= 0 || h.Version >= CheckpointVersion {
			return nil, err
		}
	}
	if h.Version > 0 && h.Version < CheckpointVersion {
		return nil, fmt.Errorf("harness: checkpoint version %d is from an older build; start a fresh campaign", h.Version)
	}
	if h.Version != CheckpointVersion {
		return nil, fmt.Errorf("harness: checkpoint version %d, want %d", h.Version, CheckpointVersion)
	}
	if len(h.Header) == 0 || string(h.Header) == "null" {
		return nil, fmt.Errorf("harness: checkpoint decode: empty header")
	}
	c := &Checkpoint{Header: h.Header, Records: make([]json.RawMessage, 0, len(lines)-1)}
	for i, ln := range lines[1:] {
		if !json.Valid(ln) {
			return nil, fmt.Errorf("harness: checkpoint decode: record %d is not JSON", i+1)
		}
		c.Records = append(c.Records, json.RawMessage(ln))
	}
	return c, nil
}

// CheckpointLog appends a campaign's task records to its log. The first
// flush writes the base log whole, replacing any file at the path. A
// record whose write fails stays queued for the next flush, which first
// cuts off what the failed write left: the log never has a gap or a
// torn line before its end.
type CheckpointLog struct {
	path    string
	base    *Checkpoint // written by the first flush; nil after it
	f       *os.File
	size    int64  // length of the log's whole lines on disk
	torn    bool   // a failed write may have left bytes past size
	pending []byte // queued records, one per line
}

// NewCheckpointLog returns a log at path that starts as base.
func NewCheckpointLog(path string, base *Checkpoint) *CheckpointLog {
	return &CheckpointLog{path: path, base: base}
}

// Add queues one record; the next Flush appends it.
func (l *CheckpointLog) Add(rec []byte) {
	l.pending = append(append(l.pending, rec...), '\n')
}

// Flush writes the base log, if no flush has yet, and then appends every
// queued record.
func (l *CheckpointLog) Flush() error {
	if l.f == nil {
		if err := l.base.Save(l.path); err != nil {
			return err
		}
		f, err := OpenLog(l.path, func(whole []byte) error {
			l.size = int64(len(whole))
			return nil
		})
		if err != nil {
			return err
		}
		l.f, l.base = f, nil
	}
	if len(l.pending) == 0 {
		return nil
	}
	if l.torn {
		if err := l.f.Truncate(l.size); err != nil {
			return fmt.Errorf("harness: checkpoint trim: %w", err)
		}
		l.torn = false
	}
	if _, err := l.f.Write(l.pending); err != nil {
		l.torn = true
		return fmt.Errorf("harness: checkpoint append: %w", err)
	}
	l.size += int64(len(l.pending))
	l.pending = l.pending[:0]
	return nil
}

// Close releases the log's file. Records still queued are lost.
func (l *CheckpointLog) Close() error {
	if l.f == nil {
		return nil
	}
	return l.f.Close()
}
