package core

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"

	"repro/internal/buginject"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/jvm"
	"repro/internal/lang"
	"repro/internal/profile"
)

// logHeader is the campaign's checkpoint header. Config is what a
// task's outcome derives from besides its cursor; budget, workers and
// executor are not in it, so they may change across a resume. Extras
// pins a generator campaign's template-mining extras: the triage store
// feeding them may grow while the campaign runs.
type logHeader struct {
	Config taskStream `json:"config"`
	Extras []string   `json:"extras,omitempty"`
}

// taskStream is the part of a CampaignConfig the task stream derives
// from. Seeds is the post-distill pool, each source by its digest.
type taskStream struct {
	Seeds      []headerSeed `json:"seeds"`
	Targets    []jvm.Spec   `json:"targets"`
	Seed       int64        `json:"seed"`
	Fuzz       Config       `json:"fuzz"` // Target and Seed are per task
	Schedule   string       `json:"schedule"`
	Generators []string     `json:"generators,omitempty"`
	Styles     []string     `json:"styles,omitempty"`
}

type headerSeed struct {
	Name   string `json:"name"`
	Source string `json:"source_sha256"`
	Gen    string `json:"gen,omitempty"`
}

// taskStream describes the prepared campaign, before any generator
// refresh.
func (c *campaign) taskStream(schedule corpus.ScheduleMode, generators []string) taskStream {
	fz := c.cfg.Fuzz
	if fz.PlanFuzz == "" {
		fz.PlanFuzz = jit.PlanDefault
	}
	ts := taskStream{
		Targets:    c.cfg.Targets,
		Seed:       c.cfg.Seed,
		Fuzz:       fz,
		Schedule:   string(schedule),
		Generators: generators,
		Styles:     c.cfg.Styles, // naming a style turns the generators on
	}
	for _, s := range c.cfg.Seeds {
		sum := sha256.Sum256([]byte(s.Source))
		ts.Seeds = append(ts.Seeds, headerSeed{Name: s.Name, Source: hex.EncodeToString(sum[:]), Gen: s.Gen})
	}
	return ts
}

// firstDiff names the first field where a and b differ, in declaration
// order and by JSON key ("fuzz.max_iterations", "seeds[2].name"), or
// returns "" when they are equal. A nil and an empty slice are equal,
// and a value with a text form (a jvm.Spec) is one field.
func firstDiff(a, b reflect.Value, path string) string {
	_, text := a.Interface().(encoding.TextMarshaler)
	switch {
	case a.Kind() == reflect.Struct && !text:
		for i := 0; i < a.NumField(); i++ {
			key, _, _ := strings.Cut(a.Type().Field(i).Tag.Get("json"), ",")
			if key == "-" {
				continue
			}
			if d := firstDiff(a.Field(i), b.Field(i), strings.TrimPrefix(path+"."+key, ".")); d != "" {
				return d
			}
		}
		return ""
	case a.Kind() == reflect.Slice:
		for i := 0; i < a.Len() && i < b.Len(); i++ {
			if d := firstDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
		if a.Len() != b.Len() {
			return path
		}
		return ""
	}
	if a.CanInterface() && !reflect.DeepEqual(a.Interface(), b.Interface()) {
		return path
	}
	return ""
}

// taskRecord is what merging one task changed: one line of the
// checkpoint log. A task is Skipped (its seed quarantined), faulted
// (Fault alone), errored (Err) or fuzzed (Delta set); a fuzzed task
// carries a Fault too when it exhausted the heap.
type taskRecord struct {
	Skipped    bool     `json:"skipped,omitempty"`
	Err        string   `json:"err,omitempty"`
	Executions int      `json:"executions,omitempty"`
	Delta      *float64 `json:"delta,omitempty"`
	// Bugs counts the task's finding occurrences, repeats included: the
	// schedule's yield.
	Bugs  int            `json:"bugs,omitempty"`
	Fault *harness.Fault `json:"fault,omitempty"`
	// Retire pins the arms of the task's seed to zero energy: the seed
	// is quarantined.
	Retire bool `json:"retire,omitempty"`
	// Findings are the task's first occurrences of a bug, without the
	// provenance apply stamps on them. In the log they are Lines plus
	// the program as source text and its OBV, once per record: every
	// new finding of a task shares its final mutant.
	Findings []Finding     `json:"-"`
	Lines    []findingLine `json:"findings,omitempty"`
	Program  string        `json:"program,omitempty"`
	OBV      []int64       `json:"obv,omitempty"`
}

// findingLine is one new finding of a record, its bug by catalog ID.
type findingLine struct {
	BugID      string          `json:"bug_id"`
	Oracle     string          `json:"oracle"`
	Mutators   []string        `json:"mutators,omitempty"`
	Divergence *jvm.Divergence `json:"divergence,omitempty"`
	PlanID     string          `json:"plan_id,omitempty"`
}

// delta is the task's final-mutant Δ, 0 when it fuzzed nothing.
func (r *taskRecord) delta() float64 {
	if r.Delta == nil {
		return 0
	}
	return *r.Delta
}

// encode renders the record as its log line.
func (r *taskRecord) encode() ([]byte, error) {
	r.Lines, r.Program, r.OBV = nil, "", nil
	for i, f := range r.Findings {
		if i == 0 {
			if f.Program != nil {
				r.Program = lang.Format(f.Program)
			}
			if f.OBV.Total() > 0 {
				r.OBV = f.OBV.Slice()
			}
		}
		r.Lines = append(r.Lines, findingLine{BugID: f.Bug.ID, Oracle: f.Oracle, Mutators: f.Mutators, Divergence: f.Divergence, PlanID: f.PlanID})
	}
	return json.Marshal(r)
}

// decodeRecord parses one log line back into the record the live merge
// built, re-resolving bugs by catalog ID and re-parsing the program.
func decodeRecord(raw []byte) (*taskRecord, error) {
	r := &taskRecord{}
	if err := json.Unmarshal(raw, r); err != nil {
		return nil, err
	}
	if r.Executions < 0 || r.Bugs < 0 {
		return nil, fmt.Errorf("negative count: %d executions, %d bugs", r.Executions, r.Bugs)
	}
	if r.Delta == nil && !r.Skipped && r.Err == "" && r.Fault == nil {
		return nil, fmt.Errorf("the record says nothing about its task")
	}
	var f Finding // what the task's new findings share
	var err error
	if r.Program != "" {
		if f.Program, err = lang.Parse(r.Program); err != nil {
			return nil, fmt.Errorf("finding program: %w", err)
		}
	}
	if r.OBV != nil {
		if f.OBV, err = profile.OBVFromSlice(r.OBV); err != nil {
			return nil, fmt.Errorf("finding OBV: %w", err)
		}
	}
	for _, fl := range r.Lines {
		if f.Bug = buginject.ByID(fl.BugID); f.Bug == nil {
			return nil, fmt.Errorf("unknown bug %q", fl.BugID)
		}
		f.Oracle, f.Mutators, f.Divergence, f.PlanID = fl.Oracle, fl.Mutators, fl.Divergence, fl.PlanID
		r.Findings = append(r.Findings, f)
	}
	return r, nil
}
