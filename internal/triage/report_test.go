package triage

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

func reportFixtureStore(t *testing.T) *Store {
	t.Helper()
	s := mustOpen(t, t.TempDir())
	t.Cleanup(func() { s.Close() })
	obv := make([]int64, 19)
	obv[0], obv[2] = 4, 1
	if _, err := s.Observe(sigFor("JDK-1"), occAt("s1", 10), "class A { big }", 9, obv); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Observe(sigFor("JDK-1"), occAt("s2", 25), "class A2 {}", 4, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Reduced(sigFor("JDK-1").Key(), "class A' {}", 2, 3, 30); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Observe(sigFor("JDK-2"), occAt("s1", 12), "class B { raw }", 6, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Observe(sigFor("JDK-3"), occAt("s3", 30), "class C {}", 5, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Quarantine(sigFor("JDK-3").Key(), "timeout: watchdog"); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestReportAggregates(t *testing.T) {
	r := BuildReport(reportFixtureStore(t))
	if r.Signatures != 3 || r.Occurrences != 4 || r.Reduced != 1 || r.Quarantined != 1 {
		t.Fatalf("aggregates = %+v", r)
	}
	byID := map[string]ReportEntry{}
	for _, e := range r.Entries {
		byID[e.BugID] = e
	}
	e1 := byID["JDK-1"]
	if !e1.Reduced || e1.MinStmts != 2 || e1.RawStmts != 9 || e1.Program != "class A' {}" {
		t.Errorf("reduced entry wrong: %+v", e1)
	}
	if e1.LastExecution != 25 || e1.Count != 2 {
		t.Errorf("sighting range wrong: %+v", e1)
	}
	if e1.OBVFingerprint == "" || !strings.Contains(e1.OBVFingerprint, ":4") {
		t.Errorf("OBV fingerprint missing: %q", e1.OBVFingerprint)
	}
	// Unreduced entries fall back to the raw reproducer, so
	// min_stmts <= raw_stmts holds for every entry.
	e2 := byID["JDK-2"]
	if e2.Reduced || e2.MinStmts != e2.RawStmts || e2.Program != "class B { raw }" {
		t.Errorf("unreduced fallback wrong: %+v", e2)
	}
	for _, e := range r.Entries {
		if e.MinStmts > e.RawStmts {
			t.Errorf("entry %s: min %d > raw %d", e.Key, e.MinStmts, e.RawStmts)
		}
	}
	if q := byID["JDK-3"]; q.Quarantined == "" {
		t.Errorf("quarantine note lost: %+v", q)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := BuildReport(reportFixtureStore(t))
	var data bytes.Buffer
	if err := r.WriteJSON(&data); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Version != reportVersion || back.Signatures != r.Signatures || len(back.Entries) != len(r.Entries) {
		t.Errorf("JSON round trip drifted: %+v", back)
	}
}

func TestReportText(t *testing.T) {
	txt := BuildReport(reportFixtureStore(t)).Text()
	for _, want := range []string{
		"3 signature(s)", "4 occurrence(s)", "1 reduced", "1 quarantined",
		"JDK-1", "reduced 9 -> 2 stmts",
		"JDK-2", "raw 6 stmts",
		"JDK-3", "reduction quarantined (timeout: watchdog)",
	} {
		if !strings.Contains(txt, want) {
			t.Errorf("report text missing %q:\n%s", want, txt)
		}
	}
}

func TestReportEmptyStore(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	r := BuildReport(s)
	if r.Signatures != 0 || r.Entries == nil {
		t.Errorf("empty report malformed: %+v", r)
	}
	if err := r.WriteJSON(io.Discard); err != nil {
		t.Error(err)
	}
}
