// Command experiments regenerates the paper's tables and figures over
// the simulated substrate.
//
// Usage:
//
//	experiments -all
//	experiments -table 6 -budget 2000 -seeds 40
//	experiments -figure 5a
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
)

func main() {
	tableFlag := flag.String("table", "", "regenerate one table: 2, 3, 4, 5, or 6")
	figureFlag := flag.String("figure", "", "regenerate one figure: 1, 2, 3, 4, 5a, or 5b")
	all := flag.Bool("all", false, "regenerate every table and figure")
	recall := flag.Bool("recall", false, "run the ground-truth recall campaign (extra artifact)")
	planRecall := flag.Bool("plan-recall", false, "run the recall campaign once per -plan-fuzz mode (off/minimal/full) and report the plan-only bugs")
	scheduleRecall := flag.Bool("schedule-recall", false, "run the recall campaign per scheduling leg (-schedule off/power x plan-fuzz off/full) and report executions-to-detection")
	generatorRecall := flag.Bool("generator-recall", false, "run the recall campaign per generator set (randprog-only vs template/style) and report the generator-only bugs")
	// The budget knobs are the campaign spec's -budget, -seeds and -seed
	// flags, defaulting to the experiments' budget.
	budget := experiments.DefaultBudget()
	spec := core.JobSpec{Budget: budget.Executions, SeedCount: budget.Seeds, Seed: budget.Seed}
	specFlags := flag.NewFlagSet("spec", flag.ContinueOnError)
	spec.RegisterFlags(specFlags)
	for _, name := range []string{"budget", "seeds", "seed"} {
		f := specFlags.Lookup(name)
		flag.Var(f.Value, f.Name, f.Usage)
	}
	flag.Parse()

	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	budget.Executions, budget.Seeds, budget.Seed = spec.Budget, spec.SeedCount, spec.Seed

	w := os.Stdout
	sep := func() {
		fmt.Fprint(w, "\n================================================================\n\n")
	}

	ran := false
	runTable := func(id string) {
		ran = true
		switch id {
		case "2":
			experiments.Table2(w)
		case "3":
			experiments.Table3(w)
		case "4":
			experiments.Table4(w)
		case "5":
			experiments.Table5(w, budget)
		case "6":
			experiments.Table6(w, budget)
		default:
			fmt.Fprintf(os.Stderr, "unknown table %q\n", id)
			os.Exit(2)
		}
	}
	runFigure := func(id string) {
		ran = true
		switch id {
		case "1":
			experiments.Figure1(w, budget)
		case "2":
			experiments.Figure2(w, budget)
		case "3":
			experiments.Figure3(w, budget)
		case "4":
			experiments.Figure4(w, budget)
		case "5a":
			experiments.Figure5a(w, budget)
		case "5b":
			experiments.Figure5b(w, budget)
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", id)
			os.Exit(2)
		}
	}

	if *all {
		for _, t := range []string{"2", "3", "4", "5", "6"} {
			runTable(t)
			sep()
		}
		for _, f := range []string{"1", "2", "3", "4", "5a", "5b"} {
			runFigure(f)
			sep()
		}
	} else {
		if *tableFlag != "" {
			runTable(*tableFlag)
		}
		if *figureFlag != "" {
			if ran {
				sep()
			}
			runFigure(*figureFlag)
		}
	}
	// The extra artifacts follow the tables and figures. -all closes
	// every artifact with a separator; otherwise one goes between them.
	// The schedule and generator legs can fail: a fault while the power
	// schedule scores the pool.
	infallible := func(run func(io.Writer, experiments.Budget)) func(io.Writer, experiments.Budget) error {
		return func(w io.Writer, b experiments.Budget) error { run(w, b); return nil }
	}
	for _, extra := range []struct {
		on  bool
		run func(io.Writer, experiments.Budget) error
	}{
		{*recall, infallible(experiments.Recall)},
		{*planRecall, infallible(experiments.PlanRecall)},
		{*scheduleRecall, experiments.ScheduleRecall},
		{*generatorRecall, experiments.GeneratorRecall},
	} {
		if !extra.on {
			continue
		}
		if ran && !*all {
			sep()
		}
		ran = true
		if err := extra.run(w, budget); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if *all {
			sep()
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
