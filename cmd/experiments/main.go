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
	"time"

	"repro/internal/exec"
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
	budgetFlag := flag.Int("budget", 0, "execution budget per tool (default per experiment)")
	seedsFlag := flag.Int("seeds", 0, "seed pool size (default per experiment)")
	seedFlag := flag.Int64("seed", 1, "campaign random seed")
	backend := flag.String("backend", "inprocess", "execution backend: inprocess, or pool (minijvm children, batched protocol; -pool-recycle-after 1 is one child per execution)")
	minijvmPath := flag.String("minijvm", "", "minijvm binary for -backend pool (default: $MINIJVM, then $PATH)")
	childTimeout := flag.Duration("child-timeout", 10*time.Second, "per-execution watchdog for -backend pool (0 = no watchdog)")
	poolChildren := flag.Int("pool-children", 0, "max warm children for -backend pool (0 = GOMAXPROCS)")
	poolRecycle := flag.Int64("pool-recycle-after", 0, "recycle a pool child after this many executions (0 = default 512)")
	poolMaxHeapMB := flag.Uint64("pool-max-heap-mb", 0, "recycle a pool child whose self-reported heap reaches this many MiB (0 = default 256)")
	flag.Parse()

	tuning := exec.PoolTuning{
		Children:          *poolChildren,
		RecycleAfter:      *poolRecycle,
		MaxChildHeapBytes: *poolMaxHeapMB << 20,
	}
	executor, err := exec.FromFlags(*backend, *minijvmPath, *childTimeout, tuning)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	defer exec.CloseExecutor(executor)

	budget := experiments.DefaultBudget()
	budget.Executor = executor
	if *budgetFlag > 0 {
		budget.Executions = *budgetFlag
	}
	if *seedsFlag > 0 {
		budget.Seeds = *seedsFlag
	}
	budget.Seed = *seedFlag

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
	for _, extra := range []struct {
		on  bool
		run func(io.Writer, experiments.Budget)
	}{
		{*recall, experiments.Recall},
		{*planRecall, experiments.PlanRecall},
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
		extra.run(w, budget)
		if *all {
			sep()
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
