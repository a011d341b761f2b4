package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeCheckpoint: DecodeCheckpoint never panics, and a snapshot it
// accepts survives Save/LoadCheckpoint — the envelope comes back
// unchanged and saving it again writes the same bytes. The seed corpus
// lives in testdata/fuzz/FuzzDecodeCheckpoint.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		dir := t.TempDir()
		first := filepath.Join(dir, "first.json")
		if err := ck.Save(first); err != nil {
			t.Fatalf("accepted snapshot failed to save: %v", err)
		}
		back, err := LoadCheckpoint(first)
		if err != nil {
			t.Fatalf("saved snapshot failed to load: %v", err)
		}
		if back.Version != ck.Version || back.TaskCursor != ck.TaskCursor || back.Executions != ck.Executions ||
			len(back.Quarantined) != len(ck.Quarantined) {
			t.Fatalf("envelope changed across Save/Load: %+v -> %+v", ck, back)
		}
		second := filepath.Join(dir, "second.json")
		if err := back.Save(second); err != nil {
			t.Fatal(err)
		}
		a, _ := os.ReadFile(first)
		b, _ := os.ReadFile(second)
		if !bytes.Equal(a, b) {
			t.Fatalf("re-saved snapshot differs:\n%s\n---\n%s", a, b)
		}
	})
}
