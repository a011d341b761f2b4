package harness

import (
	"bytes"
	"fmt"
	"os"
)

// WholeLines returns the newline-terminated prefix of a JSONL log: its
// whole records. A crash mid-append, or a reader racing an append, can
// meet a torn last record whose newline was never written; it is not
// part of the prefix.
func WholeLines(data []byte) []byte {
	return data[:bytes.LastIndexByte(data, '\n')+1]
}

// OpenLog opens the JSONL log at path for appending, creating it when it
// is missing. It first hands the log's whole records to replay; a replay
// error leaves the file as it was. Then it cuts a torn tail off, so the
// next append starts on a clean line.
func OpenLog(path string, replay func(whole []byte) error) (*os.File, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("harness: read log: %w", err)
	}
	whole := WholeLines(data)
	if err := replay(whole); err != nil {
		return nil, err
	}
	if len(whole) < len(data) {
		if err := os.Truncate(path, int64(len(whole))); err != nil {
			return nil, fmt.Errorf("harness: trim torn record: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("harness: open log: %w", err)
	}
	return f, nil
}
