package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/buginject"
	"repro/internal/core"
	"repro/internal/harness"
)

// GeneratorLeg is one cell of the generator-recall comparison: a full
// campaign with the given generator set refreshing the corpus between
// rounds, scored against the 59-bug ground-truth catalog. The
// subsystem's claim is scenario diversity: templates mined from the
// corpus and style-biased generation reach catalog bugs the fixed
// randprog pool misses at the same budget, because refreshed seeds keep
// landing new construct combinations in front of the JIT passes.
type GeneratorLeg struct {
	Generators          []string
	Detected            int
	Executions          int
	MedianExecsToDetect float64
	// GeneratorDetections counts the detected bugs whose first detection
	// rode a generator-emitted seed (finding provenance GeneratorID set)
	// rather than an original pool seed. Zero on the baseline leg by
	// construction.
	GeneratorDetections int
}

// generatorLegConfigs orders the recall legs baseline-first so the
// comparison below (bugs only the generator legs reached) reads against
// leg 0. Every leg keeps randprog in the mix — the subsystem refreshes
// a rotating quota of slots, so the baseline source still fuzzes
// alongside the new ones, exactly like a production campaign.
func generatorLegConfigs() []struct {
	Generators []string
	Styles     []string
} {
	return []struct {
		Generators []string
		Styles     []string
	}{
		{[]string{"randprog"}, nil}, // subsystem off: the fixed-pool baseline
		{[]string{"randprog", "template"}, nil},
		{[]string{"randprog", "style"}, nil}, // nil styles = every registered style
		{[]string{"randprog", "template", "style"}, nil},
	}
}

// generatorDetected runs one campaign-level recall leg and returns bug
// ID -> cumulative executions at first detection, bug ID -> generator
// provenance of that first detection ("" = original pool seed), and the
// executions spent. Campaign-level because generators only exist in the
// round planner's pool refresh.
func generatorDetected(budget Budget, gens, styleNames []string) (detected map[string]int, provenance map[string]string, execs int, err error) {
	targets := allTargets()
	fcfg := core.DefaultConfig(targets[0])
	fcfg.Seed = budget.Seed
	fcfg.StructuredOBV = true
	fcfg.Executor = budget.Executor
	res, err := core.RunCampaignContext(context.Background(), core.CampaignConfig{
		Seeds:      pool(budget),
		Budget:     budget.Executions,
		Targets:    targets,
		Fuzz:       fcfg,
		Seed:       budget.Seed,
		Executor:   budget.Executor,
		Generators: gens,
		Styles:     styleNames,
	}, harness.Config{})
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

// generatorLegRun pairs a leg's summary with its raw detection maps.
type generatorLegRun struct {
	leg        GeneratorLeg
	detected   map[string]int
	provenance map[string]string
}

// runGeneratorLegs executes every generator-recall leg on the shared
// budget.
func runGeneratorLegs(budget Budget) ([]generatorLegRun, error) {
	var runs []generatorLegRun
	for _, cfg := range generatorLegConfigs() {
		detected, provenance, execs, err := generatorDetected(budget, cfg.Generators, cfg.Styles)
		if err != nil {
			return nil, err
		}
		genHits := 0
		for _, gen := range provenance {
			if gen != "" {
				genHits++
			}
		}
		runs = append(runs, generatorLegRun{
			leg: GeneratorLeg{
				Generators:          cfg.Generators,
				Detected:            len(detected),
				Executions:          execs,
				MedianExecsToDetect: medianDetection(detected),
				GeneratorDetections: genHits,
			},
			detected:   detected,
			provenance: provenance,
		})
	}
	return runs, nil
}

// GeneratorRecall reruns the ground-truth recall campaign per generator
// leg and reports detections, executions-to-detection, and the bugs
// each generator set reached that the fixed randprog pool missed — the
// template/style subsystem's validation against the 59-bug catalog.
func GeneratorRecall(w io.Writer, budget Budget) error {
	fmt.Fprintf(w, "Generator recall vs ground truth (budget %d executions per leg, %d seeds)\n\n",
		budget.Executions, budget.Seeds)

	runs, err := runGeneratorLegs(budget)
	if err != nil {
		return err
	}

	var rows [][]string
	for _, r := range runs {
		rows = append(rows, []string{
			strings.Join(r.leg.Generators, "+"),
			fmt.Sprintf("%d/%d", r.leg.Detected, len(buginject.Catalog)),
			fmt.Sprintf("%d", r.leg.Executions),
			fmt.Sprintf("%.0f", r.leg.MedianExecsToDetect),
			fmt.Sprintf("%d", r.leg.GeneratorDetections),
		})
	}
	table(w, []string{"Generators", "Detected", "Execs", "MedianToDetect", "GenDetections"}, rows)

	// Bugs each generator leg reached that the baseline missed: the
	// scenario-diversity gain at the same budget.
	base := runs[0]
	for _, r := range runs[1:] {
		var only []string
		for id := range r.detected {
			if _, ok := base.detected[id]; !ok {
				only = append(only, id)
			}
		}
		sort.Strings(only)
		name := strings.Join(r.leg.Generators, "+")
		if len(only) > 0 {
			fmt.Fprintf(w, "\nDetected only with -generators=%s (%d):\n", name, len(only))
			for _, id := range only {
				b := buginject.ByID(id)
				via := "pool seed"
				if gen := r.provenance[id]; gen != "" {
					via = "seed by " + gen
				}
				fmt.Fprintf(w, "  %-14s %s (%s, %s; first hit via %s)\n", id, b.Component, b.Kind, b.Impl, via)
			}
		} else {
			fmt.Fprintf(w, "\nNo %s-only bugs at this budget (raise -budget).\n", name)
		}
	}
	return nil
}
