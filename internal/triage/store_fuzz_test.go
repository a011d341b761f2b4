package triage

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// FuzzTriageLog merges arbitrary bytes as an uploaded store log into an
// empty store through MergeLog, the path a fleet worker's log takes into
// the coordinator's store. Nothing may panic. A log merges exactly when
// a store whose log it is opens; a merged store holds only entries with
// a count of at least 1 and sorted, unique targets, and reopens to the
// same entries. The seed corpus is testdata/fuzz/FuzzTriageLog.
func FuzzTriageLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, log []byte) {
		srcDir := t.TempDir()
		if err := os.WriteFile(LogPath(srcDir), log, 0o644); err != nil {
			t.Fatal(err)
		}
		src, openErr := Open(srcDir)
		if openErr == nil {
			src.Close()
		}
		dir := t.TempDir()
		dst := mustOpen(t, dir)
		defer dst.Close()
		_, err := dst.MergeLog(log)
		if (err == nil) != (openErr == nil) {
			t.Fatalf("MergeLog error %v, Open error %v", err, openErr)
		}
		if err != nil {
			if dst.Len() != 0 || len(mustRead(t, LogPath(dir))) != 0 {
				t.Fatalf("a rejected log merged %d entries", dst.Len())
			}
			return
		}
		merged := dst.Entries()
		for _, e := range merged {
			if e.Count < 1 || !sortedSet(e.Targets) {
				t.Fatalf("merged entry %q: count %d, targets %q", e.Key, e.Count, e.Targets)
			}
		}
		r := mustOpen(t, dir)
		defer r.Close()
		a, _ := json.Marshal(merged)
		b, _ := json.Marshal(r.Entries())
		if !bytes.Equal(a, b) {
			t.Fatalf("reopened entries differ from the merged ones:\n%s\n%s", b, a)
		}
	})
}
