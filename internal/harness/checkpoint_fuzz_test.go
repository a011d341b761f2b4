package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDecodeCheckpoint: DecodeCheckpoint never panics, it accepts only
// the whole lines of a log, and a log it accepts survives
// Save/LoadCheckpoint: the records come back unchanged and saving them
// again writes the same bytes. The seed corpus lives in
// testdata/fuzz/FuzzDecodeCheckpoint.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		if lines := bytes.Count(WholeLines(data), []byte{'\n'}); len(ck.Records) != lines-1 {
			t.Fatalf("%d records from %d whole lines", len(ck.Records), lines)
		}
		dir := t.TempDir()
		first := filepath.Join(dir, "first.json")
		if err := ck.Save(first); err != nil {
			t.Fatalf("accepted log failed to save: %v", err)
		}
		back, err := LoadCheckpoint(first)
		if err != nil {
			t.Fatalf("saved log failed to load: %v", err)
		}
		if !reflect.DeepEqual(back.Records, ck.Records) {
			t.Fatalf("records changed across Save/Load: %q -> %q", ck.Records, back.Records)
		}
		second := filepath.Join(dir, "second.json")
		if err := back.Save(second); err != nil {
			t.Fatal(err)
		}
		a, _ := os.ReadFile(first)
		b, _ := os.ReadFile(second)
		if !bytes.Equal(a, b) {
			t.Fatalf("re-saved log differs:\n%s\n---\n%s", a, b)
		}
	})
}
