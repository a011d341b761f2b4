package triage

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func sigFor(id string) Signature {
	return Signature{Domain: "crash", BugID: id, Component: "c2-loopopts"}
}

func occAt(seed string, exec int) Occurrence {
	return Occurrence{SeedName: seed, Target: "openjdk-17", AtExecution: exec, Time: 42}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreObserveDedups(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	novel, err := s.Observe(sigFor("JDK-1"), occAt("s1", 10), "class A {}", 5, nil)
	if err != nil || !novel {
		t.Fatalf("first sighting: novel=%v err=%v", novel, err)
	}
	novel, err = s.Observe(sigFor("JDK-1"), occAt("s2", 20), "class B {}", 9, nil)
	if err != nil || novel {
		t.Fatalf("second sighting: novel=%v err=%v", novel, err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	e := s.Get(sigFor("JDK-1").Key())
	if e.Count != 2 || e.First.SeedName != "s1" || e.Last.SeedName != "s2" {
		t.Errorf("aggregation wrong: %+v", e)
	}
	if e.Raw != "class A {}" || e.RawStmts != 5 {
		t.Errorf("raw reproducer must come from the first sighting: %+v", e)
	}
}

func TestStoreReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if _, err := s.Observe(sigFor("JDK-1"), occAt("s1", 10), "class A {}", 5, []int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Observe(sigFor("JDK-2"), occAt("s1", 11), "class B {}", 7, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Reduced(sigFor("JDK-1").Key(), "class A' {}", 2, 3, 40); err != nil {
		t.Fatal(err)
	}
	if err := s.Quarantine(sigFor("JDK-2").Key(), "harness-fault: boom"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir)
	defer r.Close()
	if r.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", r.Len())
	}
	e1 := r.Get(sigFor("JDK-1").Key())
	if e1.Min != "class A' {}" || e1.MinStmts != 2 || e1.ReduceRounds != 3 || e1.ReduceProbes != 40 {
		t.Errorf("reduction lost on reopen: %+v", e1)
	}
	if e2 := r.Get(sigFor("JDK-2").Key()); e2.Quarantine != "harness-fault: boom" {
		t.Errorf("quarantine note lost on reopen: %+v", e2)
	}
	// First-seen order survives.
	ents := r.Entries()
	if ents[0].Sig.BugID != "JDK-1" || ents[1].Sig.BugID != "JDK-2" {
		t.Errorf("entry order drifted: %s, %s", ents[0].Sig.BugID, ents[1].Sig.BugID)
	}
}

// TestStoreIgnoresIndexFile: an index.json left beside the log by an
// older build, which kept one as a cache, never reaches Entries; the
// log is replayed, checks and all. The index here holds an entry under
// the wrong key with a negative count and unsorted, duplicate targets,
// and claims the log's record count, so a build that trusted the index
// would serve it.
func TestStoreIgnoresIndexFile(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if _, err := s.Observe(sigFor("JDK-1"), occAt("s1", 10), "class A {}", 5, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	index := `{"version":1,"records":1,"order":["wrong"],"entries":{"wrong":{"key":"wrong","count":-7,"targets":["z","a","a"]}}}`
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(index), 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir)
	defer r.Close()
	ents := r.Entries()
	if len(ents) != 1 {
		t.Fatalf("entries = %+v, want the log's one entry", ents)
	}
	if e := ents[0]; e.Key != sigFor("JDK-1").Key() || e.Count != 1 || !slices.Equal(e.Targets, []string{"openjdk-17"}) {
		t.Errorf("entry = key %q count %d targets %q, want the log's", e.Key, e.Count, e.Targets)
	}
}

// TestStoreToleratesTruncatedTail: a crash mid-append leaves a partial
// trailing line; everything before it must load.
func TestStoreToleratesTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if _, err := s.Observe(sigFor("JDK-1"), occAt("s1", 10), "class A {}", 5, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, dataFile)
	if err := os.WriteFile(logPath, append(mustRead(t, logPath), []byte(`{"v":1,"kind":"sigh`)...), 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir)
	if r.Len() != 1 {
		t.Fatalf("truncated tail lost intact records: Len = %d, want 1", r.Len())
	}
	// The partial line was trimmed, so new appends land cleanly and the
	// next open replays without error.
	if _, err := r.Observe(sigFor("JDK-2"), occAt("s2", 20), "class B {}", 6, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := mustOpen(t, dir)
	defer r2.Close()
	if r2.Len() != 2 {
		t.Fatalf("append after crash recovery corrupted the log: Len = %d, want 2", r2.Len())
	}
}

// TestStoreRejectsVersionSkew: records from a future store format fail
// loudly instead of being misread.
func TestStoreRejectsVersionSkew(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, dataFile),
		[]byte(`{"v":99,"kind":"entry","entry":{"key":"k"}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version skew not rejected: %v", err)
	}
}

// TestStoreRejectsBadCounts: a log record that would leave an entry's
// count below 1, push it past math.MaxInt or break its sorted target set
// fails Open, naming the record.
func TestStoreRejectsBadCounts(t *testing.T) {
	entry := func(count string) string {
		return `{"v":1,"kind":"entry","entry":{"key":"k","count":` + count + `,"targets":["openjdk-17"]}}` + "\n"
	}
	for name, log := range map[string]string{
		"zero entry count":        entry("0"),
		"negative entry count":    entry("-9223372036854775808"),
		"negative sighting count": entry("1") + `{"v":1,"kind":"sighting","key":"k","count":-1}` + "\n",
		"overflowing sighting":    entry("9223372036854775807") + `{"v":1,"kind":"sighting","key":"k"}` + "\n",
		"overflowing merge count": entry("9223372036854775000") + `{"v":1,"kind":"sighting","key":"k","count":1000}` + "\n",
		"unsorted targets":        `{"v":1,"kind":"entry","entry":{"key":"k","count":1,"targets":["openj9-17","openjdk-17","openjdk-11"]}}` + "\n",
		"duplicate targets":       `{"v":1,"kind":"entry","entry":{"key":"k","count":1,"targets":["openjdk-17","openjdk-17"]}}` + "\n",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, dataFile), []byte(log), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir)
			if err == nil {
				s.Close()
				t.Fatalf("store opened: %+v", s.Entries())
			}
			if !strings.Contains(err.Error(), "store log record") {
				t.Errorf("error %q does not name the record", err)
			}
		})
	}
}

// TestMergeOverflowLeavesLogUnwritten: a merge whose sighting would
// overflow an entry's count fails, and the destination's log keeps no
// trace of the rejected record.
func TestMergeOverflowLeavesLogUnwritten(t *testing.T) {
	dstDir := t.TempDir()
	logPath := filepath.Join(dstDir, dataFile)
	key := sigFor("JDK-1").Key()
	full := `{"v":1,"kind":"entry","entry":{"key":"` + key + `","count":9223372036854775807,"targets":["openjdk-17"]}}` + "\n"
	if err := os.WriteFile(logPath, []byte(full), 0o644); err != nil {
		t.Fatal(err)
	}
	dst := mustOpen(t, dstDir)
	defer dst.Close()
	src := mustOpen(t, t.TempDir())
	defer src.Close()
	if _, err := src.Observe(sigFor("JDK-1"), occAt("s1", 10), "class A {}", 5, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.MergeLog(mustRead(t, LogPath(src.Dir()))); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("merge past math.MaxInt: %v", err)
	}
	if got := string(mustRead(t, logPath)); got != full {
		t.Errorf("rejected record written:\n%s", got)
	}
	if e := dst.Get(key); e == nil || e.Count != math.MaxInt {
		t.Errorf("entry after the rejected merge: %+v", e)
	}
}

func TestStoreCompact(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()
	for i := 0; i < 50; i++ {
		if _, err := s.Observe(sigFor("JDK-1"), occAt("s1", i), "class A {}", 5, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Reduced(sigFor("JDK-1").Key(), "class A' {}", 2, 1, 9); err != nil {
		t.Fatal(err)
	}
	before := len(mustRead(t, filepath.Join(dir, dataFile)))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := len(mustRead(t, filepath.Join(dir, dataFile)))
	if after >= before {
		t.Errorf("compact did not shrink the log: %d -> %d bytes", before, after)
	}
	e := s.Get(sigFor("JDK-1").Key())
	if e.Count != 50 || e.Min != "class A' {}" {
		t.Errorf("compact changed observable state: %+v", e)
	}
	// Appends still work post-compact, and a reopen replays cleanly.
	if _, err := s.Observe(sigFor("JDK-2"), occAt("s2", 99), "class B {}", 3, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir)
	defer r.Close()
	if r.Len() != 2 || r.Get(sigFor("JDK-1").Key()).Count != 50 {
		t.Fatal("post-compact reopen lost state")
	}
}

func TestStoreMerge(t *testing.T) {
	a := mustOpen(t, t.TempDir())
	defer a.Close()
	b := mustOpen(t, t.TempDir())
	defer b.Close()
	if _, err := a.Observe(sigFor("JDK-1"), occAt("s1", 10), "class A {}", 5, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Observe(sigFor("JDK-1"), occAt("s9", 90), "class A9 {}", 8, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Reduced(sigFor("JDK-1").Key(), "class A' {}", 2, 1, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Observe(sigFor("JDK-2"), occAt("s9", 91), "class B {}", 6, nil); err != nil {
		t.Fatal(err)
	}

	added, err := a.MergeLog(mustRead(t, LogPath(b.Dir())))
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 {
		t.Errorf("added = %d, want 1 (JDK-2 only)", added)
	}
	if a.Len() != 2 {
		t.Fatalf("merged Len = %d, want 2", a.Len())
	}
	e1 := a.Get(sigFor("JDK-1").Key())
	if e1.Count != 2 {
		t.Errorf("merged count = %d, want 2", e1.Count)
	}
	if e1.Min != "class A' {}" {
		t.Errorf("merge did not adopt the other store's minimized reproducer: %+v", e1)
	}
	if e1.Raw != "class A {}" {
		t.Errorf("merge overwrote the destination's raw reproducer: %+v", e1)
	}
	e2 := a.Get(sigFor("JDK-2").Key())
	if e2 == nil || e2.Raw != "class B {}" {
		t.Errorf("novel entry not merged whole: %+v", e2)
	}
	// Merging again adds nothing new.
	added, err = a.MergeLog(mustRead(t, LogPath(b.Dir())))
	if err != nil || added != 0 {
		t.Errorf("re-merge: added=%d err=%v, want 0/nil", added, err)
	}
}

// TestStoreEntriesShareNoSlices: an entry the store hands out shares no
// slice with the store's own. Targets grown one sighting at a time have
// spare capacity, so an in-place insert into a shared backing array
// would shift another reader's targets: [openjdk-17 openjdk-8
// openjdk-9] would read [openj9-17 openjdk-17 openjdk-8] after one
// openj9-17 sighting. The test checks a merged source, an entry read
// before a sighting, and a returned entry the caller changes.
func TestStoreEntriesShareNoSlices(t *testing.T) {
	key := sigFor("JDK-1").Key()
	want := []string{"openjdk-17", "openjdk-8", "openjdk-9"}
	sight := func(s *Store, target string, exec int) {
		t.Helper()
		occ := occAt("s1", exec)
		occ.Target = target
		if _, err := s.Observe(sigFor("JDK-1"), occ, "class A {}", 5, []int64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	src := mustOpen(t, t.TempDir())
	defer src.Close()
	for i, target := range want {
		sight(src, target, 10+i)
	}
	if got := src.entries[key].Targets; !slices.Equal(got, want) || cap(got) == len(got) {
		t.Fatalf("source targets = %q (cap %d), want %q with spare capacity", got, cap(got), want)
	}

	// A destination sighting after a merge leaves the source alone.
	dst := mustOpen(t, t.TempDir())
	defer dst.Close()
	if _, err := dst.MergeLog(mustRead(t, LogPath(src.Dir()))); err != nil {
		t.Fatal(err)
	}
	sight(dst, "openj9-17", 20)
	if got := src.Get(key).Targets; !slices.Equal(got, want) {
		t.Errorf("source targets after a destination sighting = %q, want %q", got, want)
	}
	wantAll := []string{"openj9-17", "openjdk-17", "openjdk-8", "openjdk-9"}
	if got := dst.Get(key).Targets; !slices.Equal(got, wantAll) {
		t.Errorf("destination targets = %q, want %q", got, wantAll)
	}

	// Entries read before a sighting keep reading as they did.
	got, ents := src.Get(key), src.Entries()
	sight(src, "openj9-17", 30)
	if !slices.Equal(got.Targets, want) || !slices.Equal(ents[0].Targets, want) {
		t.Errorf("entries read before a sighting changed: Get %q, Entries %q, want %q", got.Targets, ents[0].Targets, want)
	}

	// Changing a returned entry changes nothing in the store.
	got.Targets[0] = "changed"
	got.OBV[0] = 99
	ents[0].Targets[1] = "changed"
	ents[0].OBV[1] = 99
	for _, e := range []*Entry{src.Get(key), src.Entries()[0]} {
		if !slices.Equal(e.Targets, wantAll) || !slices.Equal(e.OBV, []int64{1, 2}) {
			t.Errorf("changing a returned entry changed the store: targets %q obv %v", e.Targets, e.OBV)
		}
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestMinimizedPrograms: the template-mining iterator yields reduced
// reproducers only — skipping unreduced and quarantined entries — in
// first-seen order, and honors early stop.
func TestMinimizedPrograms(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	for i, id := range []string{"JDK-1", "JDK-2", "JDK-3", "JDK-4"} {
		if _, err := s.Observe(sigFor(id), occAt("s1", 10+i), "class Raw {}", 5, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Reduced(sigFor("JDK-3").Key(), "class Min3 {}", 2, 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Reduced(sigFor("JDK-1").Key(), "class Min1 {}", 2, 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Reduced(sigFor("JDK-4").Key(), "class Min4 {}", 2, 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Quarantine(sigFor("JDK-4").Key(), "harness-fault: boom"); err != nil {
		t.Fatal(err)
	}

	var got []string
	s.MinimizedPrograms(func(key, program string) bool {
		got = append(got, program)
		return true
	})
	if len(got) != 2 || got[0] != "class Min1 {}" || got[1] != "class Min3 {}" {
		t.Fatalf("MinimizedPrograms = %v, want [Min1 Min3] in first-seen order", got)
	}

	n := 0
	s.MinimizedPrograms(func(key, program string) bool {
		n++
		return false // early stop
	})
	if n != 1 {
		t.Fatalf("early stop visited %d entries, want 1", n)
	}
}
