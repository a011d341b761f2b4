package harness

import (
	"encoding/json"
	"fmt"
	"os"
)

// CheckpointVersion guards the snapshot schema. There is one live
// version: Save always stamps it and decoding accepts nothing else, so a
// snapshot is never silently misread. Campaign state since v5 holds only
// what resume reads, each fact once: the cursor and execution count are
// the envelope's alone. Blocks for features a campaign leaves off are
// simply absent.
const CheckpointVersion = 5

// Checkpoint is a campaign snapshot. The harness owns the envelope
// (task cursor, execution count, quarantine index), the only copies of
// those facts; the campaign owns State, an opaque JSON blob with its
// findings, deltas, faults and feature blocks. TaskCursor doubles as
// the RNG cursor: per-task RNG seeds are derived from the campaign seed
// plus the global task index, so restoring the cursor restores the
// random stream exactly.
type Checkpoint struct {
	Version     int             `json:"version"`
	TaskCursor  int             `json:"task_cursor"`
	Executions  int             `json:"executions"`
	Quarantined []string        `json:"quarantined,omitempty"`
	State       json.RawMessage `json:"state,omitempty"`
}

// Save writes the checkpoint atomically (temp file + rename), so an
// interruption mid-flush leaves the previous snapshot intact.
func (c *Checkpoint) Save(path string) error {
	c.Version = CheckpointVersion
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("harness: checkpoint encode: %w", err)
	}
	if err := WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("harness: checkpoint write: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and validates a snapshot.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("harness: checkpoint read: %w", err)
	}
	return DecodeCheckpoint(data)
}

// DecodeCheckpoint validates a serialized snapshot — the same checks
// LoadCheckpoint applies, reusable for snapshots that arrive over the
// wire (fleet checkpoint handoff) instead of from a file.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("harness: checkpoint decode: %w", err)
	}
	if c.Version > 0 && c.Version < CheckpointVersion {
		return nil, fmt.Errorf("harness: checkpoint version %d is a snapshot from an older build; start a fresh campaign", c.Version)
	}
	if c.Version != CheckpointVersion {
		return nil, fmt.Errorf("harness: checkpoint version %d, want %d", c.Version, CheckpointVersion)
	}
	if c.TaskCursor < 0 || c.Executions < 0 {
		return nil, fmt.Errorf("harness: checkpoint has negative cursor/executions")
	}
	return &c, nil
}
