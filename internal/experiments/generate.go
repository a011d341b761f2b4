package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/buginject"
	"repro/internal/core"
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
func generatorLegConfigs() []core.JobSpec {
	return []core.JobSpec{
		{Generators: []string{"randprog"}}, // subsystem off: the fixed-pool baseline
		{Generators: []string{"randprog", "template"}},
		{Generators: []string{"randprog", "style"}}, // nil styles = every registered style
		{Generators: []string{"randprog", "template", "style"}},
	}
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
		detected, provenance, execs, err := legDetected(budget, cfg)
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
	runs, err := runGeneratorLegs(budget)
	if err != nil {
		return err
	}
	renderGeneratorRecall(w, budget, runs)
	return nil
}

func renderGeneratorRecall(w io.Writer, budget Budget, runs []generatorLegRun) {
	fmt.Fprintf(w, "Generator recall vs ground truth (budget %d executions per leg, %d seeds)\n\n",
		budget.Executions, budget.Seeds)
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
		name := strings.Join(r.leg.Generators, "+")
		detectedOnly(w, r.detected, base.detected, "-generators="+name, "", r.provenance,
			"No "+name+"-only bugs at this budget (raise -budget).")
	}
}
