package core

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/corpus"
	"repro/internal/exec"
	"repro/internal/generate"
	"repro/internal/jit"
	"repro/internal/jvm"
)

// Bounds on a spec's sizes: a campaign with more workers or generated
// seeds than this is rejected by Validate instead of exhausting the
// process that runs it.
const (
	MaxWorkers   = 1024
	MaxSeedCount = 10000
)

// SeedSpec is one user-supplied seed program in a campaign spec.
type SeedSpec struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

// JobSpec is the one campaign specification: the seed corpus plus the
// campaign knobs. mopfuzzer fills it from flags (RegisterFlags), a
// mopfuzzd job and a fleet assignment carry it as JSON, and the
// experiments legs build it directly; all of them run it through
// Validate and Campaign. A zero field gets Validate's default:
// `{"budget": 500}` is a valid spec.
type JobSpec struct {
	// Name is a free-form label for humans; it does not identify the job.
	Name string `json:"name,omitempty"`
	// Targets are jvm.Spec names (e.g. "openjdk-17"), cycled per seed
	// task. Default: openjdk-17.
	Targets []string `json:"targets,omitempty"`
	// SeedCount generates that many corpus seeds from Seed; user seeds in
	// Seeds are appended after them. Default 8 when Seeds is empty.
	SeedCount int        `json:"seed_count,omitempty"`
	Seeds     []SeedSpec `json:"seeds,omitempty"`
	// Budget is the total execution budget (default 1000).
	Budget int `json:"budget,omitempty"`
	// Iterations is MAX Iterations per seed (default 50).
	Iterations int   `json:"iterations,omitempty"`
	Seed       int64 `json:"seed,omitempty"` // RNG seed (default 1)
	// Workers shards seed tasks inside the campaign (0 or 1 runs
	// sequentially; results are byte-identical either way).
	Workers int `json:"workers,omitempty"`
	// Backend pins the execution backend's name ("inprocess" or "pool");
	// empty inherits the runner's exec.Backend, whose other settings
	// (minijvm path, child timeout, pool shape) always apply.
	Backend string `json:"backend,omitempty"`
	// Extended enables the alternative evoking-mutator implementations.
	Extended bool `json:"extended,omitempty"`
	// HeapLimit caps per-execution heap allocation in units (0 = VM
	// default, <0 = uncapped).
	HeapLimit int64 `json:"heap_limit,omitempty"`
	// PlanFuzz turns the compilation plan into a fuzz dimension: "" or
	// "off" keeps the fixed pipeline (byte-identical to pre-plan jobs),
	// "minimal"/"full" select the fuzzed-plan modes.
	PlanFuzz string `json:"plan_fuzz,omitempty"`
	// Schedule selects the campaign's seed-budget policy: "" or "off"
	// walks seeds in cursor order (byte-identical to pre-schedule jobs),
	// "power" allocates round slots across (seed, plan-mode) arms by
	// scored energy.
	Schedule string `json:"schedule,omitempty"`
	// Distill shrinks the seed pool to its maximally-diverse subset
	// (one profiling dry-run per seed) before fuzzing starts.
	Distill bool `json:"distill,omitempty"`
	// Generators selects the corpus generators that refresh the seed
	// pool between rounds: "randprog" (baseline; alone it is
	// byte-identical to a generator-free job), "template", "style".
	// Empty keeps the subsystem off.
	Generators []string `json:"generators,omitempty"`
	// Styles restricts the style generator to the named composition
	// styles; naming one implies the style generator.
	Styles []string `json:"styles,omitempty"`
}

// RegisterFlags applies the defaults to the spec's zero fields, then
// registers one flag per CLI-settable field on fs, bound to that field
// with its current value as the flag default. Name, Seeds and Distill
// are JSON-only; Backend is set through exec.Backend's -backend flag.
func (s *JobSpec) RegisterFlags(fs *flag.FlagSet) {
	s.defaults()
	fs.Var(listFlag{&s.Targets}, "jdk", "target JVM (openjdk-{8,11,17,21,mainline}, openj9-...)")
	fs.IntVar(&s.SeedCount, "seeds", s.SeedCount, "generated corpus size")
	fs.IntVar(&s.Budget, "budget", s.Budget, "total execution budget for corpus campaigns")
	fs.IntVar(&s.Iterations, "iterations", s.Iterations, "mutations per seed (MAX Iterations)")
	fs.Int64Var(&s.Seed, "seed", s.Seed, "random seed")
	fs.IntVar(&s.Workers, "workers", s.Workers, "parallel seed-task workers (1 = sequential; results are identical either way)")
	fs.BoolVar(&s.Extended, "extended", s.Extended, "include the alternative evoking-mutator implementations")
	fs.Int64Var(&s.HeapLimit, "heap-limit", s.HeapLimit, "per-execution heap-allocation cap in units (0 = VM default, <0 = uncapped)")
	fs.StringVar(&s.PlanFuzz, "plan-fuzz", s.PlanFuzz, "compilation-plan fuzzing: off (fixed pipeline), minimal (mandatory passes, fuzzed order), or full (fuzzed pass selection, order, and loop rounds)")
	fs.StringVar(&s.Schedule, "schedule", s.Schedule, "seed-budget policy: off (cursor order, byte-identical to prior releases) or power (energy-weighted (seed, plan-mode) arms)")
	fs.Var(listFlag{&s.Generators}, "generators", "comma-separated corpus generators refreshing the pool between rounds: randprog (baseline, byte-identical alone), template (typed holes in seeds + minimized triage findings), style (composition styles targeting pass interactions)")
	fs.Var(listFlag{&s.Styles}, "styles", "comma-separated composition styles for the style generator (empty = all registered); naming a style implies -generators=...,style")
}

// listFlag binds a comma-separated flag to a string list: the CLI form
// of the spec's JSON arrays.
type listFlag struct{ list *[]string }

func (f listFlag) String() string {
	if f.list == nil {
		return ""
	}
	return strings.Join(*f.list, ",")
}

func (f listFlag) Set(v string) error {
	*f.list = nil
	for _, part := range strings.Split(v, ",") {
		if p := strings.TrimSpace(part); p != "" {
			*f.list = append(*f.list, p)
		}
	}
	return nil
}

// defaults fills the zero fields that have a default.
func (s *JobSpec) defaults() {
	if s.Budget == 0 {
		s.Budget = 1000
	}
	if s.Iterations == 0 {
		s.Iterations = 50
	}
	if s.SeedCount == 0 && len(s.Seeds) == 0 {
		s.SeedCount = 8
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if len(s.Targets) == 0 {
		s.Targets = []string{"openjdk-17"}
	}
}

// Validate normalizes a spec in place (applying the defaults; an empty
// list becomes nil, which encodes the same) and rejects anything that
// would fault a campaign at run time: out-of-range sizes, unknown
// target specs, backends, modes and generators, and malformed user
// seed programs. A bad spec is a usage or API error, not a campaign
// fault.
func (s *JobSpec) Validate() error {
	switch {
	case s.Budget < 0:
		return fmt.Errorf("budget must be positive")
	case s.Iterations < 0:
		return fmt.Errorf("iterations must be positive")
	case s.SeedCount < 0:
		return fmt.Errorf("seed_count must be non-negative")
	case s.SeedCount > MaxSeedCount:
		return fmt.Errorf("seed_count must be at most %d", MaxSeedCount)
	case s.Workers < 0:
		return fmt.Errorf("workers must be non-negative")
	case s.Workers > MaxWorkers:
		return fmt.Errorf("workers must be at most %d", MaxWorkers)
	}
	s.defaults()
	for _, list := range []*[]string{&s.Generators, &s.Styles} {
		if len(*list) == 0 {
			*list = nil
		}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = nil
	}
	for _, t := range s.Targets {
		if _, err := jvm.ParseSpec(t); err != nil {
			return fmt.Errorf("target %q: %v", t, err)
		}
	}
	if err := exec.CheckBackend(s.Backend); err != nil {
		return err
	}
	if _, err := jit.ParsePlanMode(s.PlanFuzz); err != nil {
		return fmt.Errorf("plan_fuzz: %v", err)
	}
	if _, err := corpus.ParseScheduleMode(s.Schedule); err != nil {
		return fmt.Errorf("schedule: %v", err)
	}
	if _, err := generate.Normalize(s.Generators, s.Styles); err != nil {
		return fmt.Errorf("generators: %v", err)
	}
	return VetSeeds(s.Seeds, 0)
}

// VetSeeds names each unnamed seed User%04d by its position after base
// (the seeds already in the spec) and rejects an empty or malformed
// program, so a campaign-side Parse cannot fault on it.
func VetSeeds(seeds []SeedSpec, base int) error {
	for i := range seeds {
		if seeds[i].Name == "" {
			seeds[i].Name = fmt.Sprintf("User%04d", base+i+1)
		}
		if seeds[i].Source == "" {
			return fmt.Errorf("seed %s: empty source", seeds[i].Name)
		}
		if _, err := (corpus.Seed{Name: seeds[i].Name, Source: seeds[i].Source}).TryParse(); err != nil {
			return err
		}
	}
	return nil
}

// Pool materializes the validated spec's seed corpus: the generated
// pool first, then user seeds in submission order.
func (s *JobSpec) Pool() []corpus.Seed {
	out := corpus.DefaultPool(s.SeedCount, s.Seed)
	for _, sd := range s.Seeds {
		out = append(out, corpus.Seed{Name: sd.Name, Source: sd.Source})
	}
	return out
}

// FuzzConfig builds the per-seed fuzzer configuration of a validated
// spec against its first target.
func (s *JobSpec) FuzzConfig(executor exec.Executor) Config {
	cfg := DefaultConfig(s.targets()[0])
	cfg.MaxIterations = s.Iterations
	cfg.Seed = s.Seed
	cfg.ExtendedMutators = s.Extended
	cfg.MaxHeapUnits = s.HeapLimit
	cfg.Executor = executor
	// Validate already vetted the mode; "" keeps the fixed pipeline.
	cfg.PlanFuzz, _ = jit.ParsePlanMode(s.PlanFuzz)
	return cfg
}

// Campaign builds the campaign configuration a validated spec runs
// under. Every execution site (mopfuzzer, the daemon's runner pool,
// the fleet worker, the experiments legs) MUST go through this one
// constructor: the knobs it sets decide the campaign's deterministic
// schedule, so two sites composing them independently could drift and
// break the byte-identical-resume guarantee across handoffs.
func (s *JobSpec) Campaign(executor exec.Executor) CampaignConfig {
	schedule, _ := corpus.ParseScheduleMode(s.Schedule)
	return CampaignConfig{
		Seeds:        s.Pool(),
		Budget:       s.Budget,
		Targets:      s.targets(),
		Fuzz:         s.FuzzConfig(executor),
		Seed:         s.Seed,
		Workers:      s.Workers,
		Executor:     executor,
		SeedSchedule: schedule,
		DistillSeeds: s.Distill,
		Generators:   append([]string(nil), s.Generators...),
		Styles:       append([]string(nil), s.Styles...),
	}
}

// GeneratorsOn reports whether the (validated) spec enables the
// generator subsystem — i.e. whether its generator set normalizes to
// anything beyond the baseline.
func (s *JobSpec) GeneratorsOn() bool {
	gens, err := generate.Normalize(s.Generators, s.Styles)
	return err == nil && gens != nil
}

// targets parses the validated target names.
func (s *JobSpec) targets() []jvm.Spec {
	out := make([]jvm.Spec, 0, len(s.Targets))
	for _, t := range s.Targets {
		spec, err := jvm.ParseSpec(t)
		if err != nil {
			panic(fmt.Sprintf("core: unvalidated target %q: %v", t, err)) // Validate ran first
		}
		out = append(out, spec)
	}
	return out
}
