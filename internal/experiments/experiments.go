// Package experiments regenerates every table and figure of the paper's
// evaluation over the simulated substrate: deterministic campaigns with
// fixed seeds, execution-count budgets standing in for wall-clock time,
// and text renderings of each artifact.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/baselines"
	"repro/internal/buginject"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/harness"
	"repro/internal/jvm"
)

// Budget scales the experiments: Executions stands in for the paper's
// 24-hour tool budgets; Seeds sizes the shared pool (§4.1 uses the same
// seed pool for every tool).
type Budget struct {
	Executions int
	Seeds      int
	Seed       int64
}

// DefaultBudget finishes in tens of seconds on a laptop.
func DefaultBudget() Budget { return Budget{Executions: 1500, Seeds: 40, Seed: 1} }

// toolRun aggregates one budgeted campaign over the seed pool.
type toolRun struct {
	// Findings holds each bug's first finding, in detection order.
	Findings []core.BugFinding
	// FindingAt holds cumulative executions at each unique-bug detection.
	FindingAt []int
	Deltas    []float64
	Execs     int
	// Cov is the tracker the run's tools recorded line coverage into
	// (nil = none).
	Cov *coverage.Tracker
}

// runKey is everything a per-seed campaign's result depends on: the
// name of its tool and configuration, its salt, and the budget's
// executions and seed pool.
type runKey struct {
	campaign          string
	salt, seed        int64
	executions, seeds int
}

// memo holds every per-seed campaign the process has run, so artifacts
// that print the same runs (Table 6 and Figure 2, Figures 3 and 4,
// Figures 5a and 5b, Recall and PlanRecall) run them once.
var memo = struct {
	sync.Mutex
	runs map[runKey]*toolRun
}{runs: map[runKey]*toolRun{}}

// once returns the run of the named campaign at salt over the budget,
// calling run to compute it until the process holds one. Callers that
// race on a new campaign may each compute it; all get the run stored
// first.
func once(budget Budget, campaign string, salt int64, run func() *toolRun) *toolRun {
	key := runKey{campaign, salt, budget.Seed, budget.Executions, budget.Seeds}
	memo.Lock()
	r, ok := memo.runs[key]
	memo.Unlock()
	if ok {
		return r
	}
	r = run()
	memo.Lock()
	defer memo.Unlock()
	if stored, ok := memo.runs[key]; ok {
		return stored
	}
	memo.runs[key] = r
	return r
}

// Seed salts: each artifact's per-seed RNG stream is
// budget.Seed*salt + idx, with idx counting FuzzSeed calls from 1.
const (
	toolSalt   = 100000 // the per-tool comparisons (Table 6, Figures 2–5)
	table5Salt = 7919   // Table 5's multi-target campaign
	recallSalt = 104729 // Recall and PlanRecall
)

// hotspot17 is the target of the per-tool comparisons.
var hotspot17 = jvm.Spec{Impl: buginject.HotSpot, Version: 17}

// A setup is how a per-tool campaign configures its tool.
type setup string

const (
	armed   setup = "armed"    // bugs armed (Figure 5)
	covered setup = "covered"  // bugs armed, coverage into the run's tracker (Table 6, Figure 2)
	bugFree setup = "bug-free" // bugs disarmed, no differential (Figures 3 and 4)
)

// toolCampaign is the named tool's campaign on hotspot17 under setup:
// one tool drives every seed at toolSalt. JITFuzz runs at most the
// budget's executions per seed.
func toolCampaign(budget Budget, name string, s setup) *toolRun {
	return once(budget, name+"/"+string(s), toolSalt, func() *toolRun {
		var cov *coverage.Tracker
		if s == covered {
			cov = coverage.NewTracker()
		}
		var tool baselines.Tool
		switch name {
		case "MopFuzzer":
			tool = baselines.NewMopFuzzer(hotspot17, cov)
		case "MopFuzzer_g":
			tool = baselines.NewMopFuzzerG(hotspot17, cov)
		case "MopFuzzer_r":
			tool = baselines.NewMopFuzzerR(hotspot17, cov)
		case "JITFuzz":
			jf := baselines.NewJITFuzz(hotspot17, cov)
			jf.Iterations = min(jf.Iterations, budget.Executions)
			tool = jf
		case "Artemis":
			tool = baselines.NewArtemis(hotspot17, cov)
		}
		// Δ is a property of generated mutants, not of bugs: bug-free
		// VMs keep crashes from truncating the runs.
		if s == bugFree {
			switch t := tool.(type) {
			case *baselines.MopFuzzerTool:
				t.Cfg.DisableBugs, t.Cfg.DiffSpecs = true, nil
			case *baselines.JITFuzzTool:
				t.DisableBugs, t.DiffSpecs = true, nil
			case *baselines.ArtemisTool:
				t.DisableBugs, t.DiffSpecs = true, nil
			}
		}
		run := runSeeds(budget, toolSalt, func(int64, int) baselines.Tool { return tool })
		run.Cov = cov
		return run
	})
}

// runSeeds is the budgeted seed loop every per-seed artifact runs: it
// sweeps the budget's seed pool round after round until the execution
// budget is spent or a whole round fails, fuzzing seed i of the idx-th
// call with toolAt(idx, i) under RNG seed budget.Seed*salt+idx. A
// detection counts at the executions after its seed's run, so the run
// that crosses the budget records none.
func runSeeds(budget Budget, salt int64, toolAt func(idx int64, i int) baselines.Tool) *toolRun {
	seeds := corpus.DefaultPool(budget.Seeds, budget.Seed)
	run := &toolRun{}
	seen := map[string]bool{}
	idx := int64(0)
	parsed := corpus.NewParseCache() // parse each seed once, not once per round
	for run.Execs < budget.Executions {
		progressed := false
		for i, seed := range seeds {
			if run.Execs >= budget.Executions {
				break
			}
			idx++
			tool := toolAt(idx, i)
			fr, err := tool.FuzzSeed(seed.Name, parsed.Parse(seed), budget.Seed*salt+idx)
			if err != nil {
				continue
			}
			progressed = true
			run.Execs += fr.Executions
			run.Deltas = append(run.Deltas, fr.FinalDelta)
			if run.Execs > budget.Executions {
				break // this seed's findings land past the budget
			}
			for _, fd := range fr.Findings {
				if fd.Bug == nil || seen[fd.Bug.ID] {
					continue
				}
				seen[fd.Bug.ID] = true
				run.Findings = append(run.Findings, fd)
				run.FindingAt = append(run.FindingAt, run.Execs)
			}
		}
		if !progressed {
			break
		}
	}
	return run
}

// detected maps each bug ID the run found to the executions at its
// first detection.
func (r *toolRun) detected() map[string]int {
	out := map[string]int{}
	for i, f := range r.Findings {
		out[f.Bug.ID] = r.FindingAt[i]
	}
	return out
}

// --- small stats helpers ---

type fiveNum struct{ Min, Q1, Med, Q3, Max float64 }

func summarize(xs []float64) fiveNum {
	if len(xs) == 0 {
		return fiveNum{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		i := int(p * float64(len(s)-1))
		return s[i]
	}
	return fiveNum{Min: s[0], Q1: q(0.25), Med: q(0.5), Q3: q(0.75), Max: s[len(s)-1]}
}

// boxplotLine renders a five-number summary as an ASCII boxplot scaled
// into [lo, hi].
func boxplotLine(f fiveNum, lo, hi float64, width int) string {
	if hi <= lo {
		hi = lo + 1
	}
	pos := func(v float64) int {
		return min(max(int(float64(width-1)*(v-lo)/(hi-lo)), 0), width-1)
	}
	line := make([]byte, width)
	for i := range line {
		line[i] = ' '
	}
	for i := pos(f.Min); i <= pos(f.Max); i++ {
		line[i] = '-'
	}
	for i := pos(f.Q1); i <= pos(f.Q3); i++ {
		line[i] = '='
	}
	line[pos(f.Med)] = '|'
	return string(line)
}

// table renders rows with aligned columns.
func table(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// legDetected runs one campaign-level recall leg: spec's campaign knobs
// over the budget's pool and executions, cycling every target. It
// returns bug ID -> cumulative executions at first detection, bug ID ->
// generator provenance of that first detection ("" = an original pool
// seed), and the executions spent. Legs run whole campaigns, not the
// per-seed loop, because the power schedule and the generators exist
// only in the round planner. The error is an invalid spec or a fault
// while scoring the pool.
func legDetected(budget Budget, spec core.JobSpec) (detected map[string]int, provenance map[string]string, execs int, err error) {
	for _, t := range jvm.AllSpecs() {
		spec.Targets = append(spec.Targets, t.Name())
	}
	spec.SeedCount, spec.Seed, spec.Budget = budget.Seeds, budget.Seed, budget.Executions
	if err := spec.Validate(); err != nil {
		return nil, nil, 0, err
	}
	res, err := core.RunCampaignContext(context.Background(), spec.Campaign(nil), harness.Config{})
	if err != nil {
		return nil, nil, 0, err
	}
	detected, provenance = map[string]int{}, map[string]string{}
	for i := range res.Findings {
		f := &res.Findings[i]
		if f.Bug == nil {
			continue
		}
		if at, ok := detected[f.Bug.ID]; !ok || f.AtExecution < at {
			detected[f.Bug.ID] = f.AtExecution
			provenance[f.Bug.ID] = f.GeneratorID
		}
	}
	return detected, provenance, res.Executions, nil
}
