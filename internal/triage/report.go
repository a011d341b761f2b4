package triage

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/profile"
)

// reportVersion guards the report JSON schema consumed by CI.
const reportVersion = 1

// ReportEntry is one deduplicated bug in a triage report.
type ReportEntry struct {
	Key           string `json:"key"`
	Domain        string `json:"domain"`
	BugID         string `json:"bug_id,omitempty"`
	Component     string `json:"component,omitempty"`
	DivergentPair string `json:"divergent_pair,omitempty"`
	Count         int    `json:"count"`
	// Targets is the sorted set of specs the bug was seen on.
	Targets []string `json:"targets"`
	// FirstSeed/FirstRound locate the first sighting; LastExecution the
	// latest one on the campaign time axis.
	FirstSeed     string `json:"first_seed,omitempty"`
	FirstRound    int    `json:"first_round"`
	LastExecution int    `json:"last_execution"`
	// RawStmts is the unreduced reproducer size; MinStmts the minimized
	// one, falling back to RawStmts while the signature is unreduced —
	// so min_stmts <= raw_stmts is an invariant, not a hope.
	RawStmts int  `json:"raw_stmts"`
	MinStmts int  `json:"min_stmts"`
	Reduced  bool `json:"reduced"`
	// Quarantined notes a reduction the harness contained (panic/hang).
	Quarantined string `json:"quarantined,omitempty"`
	// OBVFingerprint renders the profile behaviors active at failure.
	OBVFingerprint string `json:"obv_fingerprint,omitempty"`
	// Program is the best reproducer available: minimized when reduction
	// succeeded, raw otherwise.
	Program string `json:"program,omitempty"`
}

// Report is the triage summary for a findings store: every deduplicated
// signature with its best reproducer, plus aggregate counts.
type Report struct {
	Version     int           `json:"version"`
	Signatures  int           `json:"signatures"`
	Occurrences int           `json:"occurrences"`
	Reduced     int           `json:"reduced"`
	Quarantined int           `json:"quarantined"`
	Entries     []ReportEntry `json:"entries"`
}

// BuildReport renders the store's current state as a report, entries in
// first-seen order.
func BuildReport(s *Store) *Report {
	r := &Report{Version: reportVersion, Entries: []ReportEntry{}}
	for _, e := range s.Entries() {
		re := ReportEntry{
			Key:           e.Key,
			Domain:        e.Sig.Domain,
			BugID:         e.Sig.BugID,
			Component:     e.Sig.Component,
			DivergentPair: e.Sig.DivergentPair,
			Count:         e.Count,
			Targets:       e.Targets,
			FirstSeed:     e.First.SeedName,
			FirstRound:    e.First.Round,
			LastExecution: e.Last.AtExecution,
			RawStmts:      e.RawStmts,
			MinStmts:      e.RawStmts,
			Quarantined:   e.Quarantine,
			Program:       e.Raw,
		}
		if e.Min != "" {
			re.MinStmts, re.Reduced, re.Program = e.MinStmts, true, e.Min
			r.Reduced++
		}
		if e.Quarantine != "" {
			r.Quarantined++
		}
		if len(e.OBV) == profile.NumBehaviors {
			if v, err := profile.OBVFromSlice(e.OBV); err == nil && v.Total() > 0 {
				re.OBVFingerprint = v.String()
			}
		}
		r.Signatures++
		r.Occurrences += e.Count
		r.Entries = append(r.Entries, re)
	}
	return r
}

// WriteJSON writes the canonical machine encoding — indented JSON plus a
// trailing newline. It is the single serialization behind both
// `triage report -json` and the service daemon's /jobs/{id}/findings
// endpoint, so CLI consumers and API consumers parse one format.
func (r *Report) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// Text renders the report for humans.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "triage report: %d signature(s), %d occurrence(s), %d reduced, %d quarantined\n",
		r.Signatures, r.Occurrences, r.Reduced, r.Quarantined)
	for _, e := range r.Entries {
		id := e.BugID
		if id == "" {
			id = e.DivergentPair
		}
		if id == "" {
			id = "<unattributed>"
		}
		fmt.Fprintf(&b, "  %-14s %-26s %-12s ×%-3d targets=%s",
			id, e.Component, e.Domain, e.Count, strings.Join(e.Targets, ","))
		switch {
		case e.Reduced:
			fmt.Fprintf(&b, " reduced %d -> %d stmts", e.RawStmts, e.MinStmts)
		case e.Quarantined != "":
			fmt.Fprintf(&b, " reduction quarantined (%s)", e.Quarantined)
		default:
			fmt.Fprintf(&b, " raw %d stmts", e.RawStmts)
		}
		fmt.Fprintf(&b, "\n    first: seed %s round %d; last at execution %d\n",
			e.FirstSeed, e.FirstRound, e.LastExecution)
		if e.OBVFingerprint != "" {
			fmt.Fprintf(&b, "    obv: %s\n", e.OBVFingerprint)
		}
	}
	return b.String()
}
