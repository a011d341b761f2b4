package reduce

import (
	"context"

	"repro/internal/buginject"
	"repro/internal/exec"
	"repro/internal/jvm"
	"repro/internal/lang"
)

// probeMaxSteps bounds each probe execution.
const probeMaxSteps = 2_000_000

// Pipeline is the reusable finding-reduction stage: it shrinks a
// bug-triggering mutant while the specific catalog bug keeps firing,
// probing candidates through an execution backend. `mopfuzzer -case
// -reduce` and the triage worker share this one implementation, so the
// "still triggers" semantics cannot drift between them.
type Pipeline struct {
	// Executor runs reduction probes; nil uses the in-process default. The
	// pool executor isolates the probes exactly like the fuzzing loop's
	// executions.
	Executor exec.Executor
	// Options tunes the underlying syntax-guided reduction.
	Options Options
}

// ReduceFinding shrinks p while bug keeps firing on target. When the
// bug is not armed on the finding's own target (a differential finding
// attributed to another build), candidates are probed on every spec
// instead. The context cancels in-flight reduction: once ctx is done
// every probe fails, so the fixed-point loop drains quickly and returns
// the best candidate found so far — callers running reduction under a
// watchdog rely on this to reclaim abandoned workers.
func (pl *Pipeline) ReduceFinding(ctx context.Context, p *lang.Program, bug *buginject.Bug, target jvm.Spec) *Result {
	specs := []jvm.Spec{target}
	if !bug.In(target.Version) || bug.Impl != target.Impl {
		specs = jvm.AllSpecs()
	}
	ex := exec.Or(pl.Executor)
	keep := func(cand *lang.Program) bool {
		if ctx.Err() != nil {
			return false
		}
		for _, spec := range specs {
			r, err := ex.Execute(ctx, lang.CloneProgram(cand), spec, jvm.Options{ForceCompile: true, MaxSteps: probeMaxSteps})
			if err != nil {
				continue
			}
			if r.Result.Crash != nil && r.Result.Crash.BugID == bug.ID {
				return true
			}
			for _, t := range r.Triggered {
				if t.ID == bug.ID {
					return true
				}
			}
		}
		return false
	}
	return Reduce(p, keep, pl.Options)
}
