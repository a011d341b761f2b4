package triage

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzTriageLog opens arbitrary bytes as a store log and merges the
// store into an empty one, the path a fleet worker's uploaded log takes
// into the coordinator's store. Neither may panic; a log that opens
// holds only entries with a count of at least 1 and sorted, unique
// targets, and merging them into an empty store succeeds and keeps
// both properties. The seed corpus is testdata/fuzz/FuzzTriageLog.
func FuzzTriageLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, log []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, dataFile), log, 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := Open(dir)
		if err != nil {
			return
		}
		defer src.Close()
		checkEntries(t, "opened", src)
		dst := mustOpen(t, t.TempDir())
		defer dst.Close()
		if _, err := dst.Merge(src); err != nil {
			t.Fatalf("merge into an empty store: %v", err)
		}
		checkEntries(t, "merged", dst)
	})
}

func checkEntries(t *testing.T, what string, s *Store) {
	t.Helper()
	for _, e := range s.Entries() {
		if e.Count < 1 || !sortedSet(e.Targets) {
			t.Fatalf("%s entry %q: count %d, targets %q", what, e.Key, e.Count, e.Targets)
		}
	}
}
