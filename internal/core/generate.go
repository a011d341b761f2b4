package core

import (
	"math/rand"

	"repro/internal/corpus"
	"repro/internal/generate"
	"repro/internal/lang"
)

// mutatorFillers adapts the mutator stack into template hole fillers: a
// statement hole is filled by a deterministically-chosen applicable
// mutator. This is what makes randprog "one hole-filler among several"
// — the template generator's built-in synthesizer is the fallback when
// no mutator applies.
func mutatorFillers() []generate.StmtFiller {
	muts := AllMutators()
	return []generate.StmtFiller{
		func(p *lang.Program, loc *lang.Location, rng *rand.Rand) bool {
			var applicable []Mutator
			for _, m := range muts {
				if m.Applicable(loc) {
					applicable = append(applicable, m)
				}
			}
			if len(applicable) == 0 {
				return false
			}
			m := applicable[rng.Intn(len(applicable))]
			_, err := m.Apply(p, loc, rng)
			return err == nil
		},
	}
}

// genRuntime is the campaign-side generator subsystem state: the built
// generator set, the emission counts and the last refreshed round. A nil
// *genRuntime is the subsystem switched off: the pool stays static.
type genRuntime struct {
	gens []generate.Generator
	// emitted counts lifetime emissions per generator ID; the next
	// emission from generator g draws index emitted[g].
	emitted   map[string]int
	lastRound int // the highest round whose boundary refresh has run
	quota     int // pool slots refreshed per round boundary
}

// newGenRuntime builds the configured generator set over the campaign's
// (post-distill) pool. extras are the pinned template-mining extras —
// cfg.TemplateExtras on a fresh run, the checkpoint header's on resume.
// newCampaign calls it only when generate.Normalize found the subsystem
// on, so Build returns a non-empty set.
func newGenRuntime(cfg CampaignConfig, extras []string) (*genRuntime, error) {
	gens, err := generate.Build(generate.Config{
		Generators:      cfg.Generators,
		Styles:          cfg.Styles,
		TemplateSources: cfg.Seeds,
		TemplateExtras:  extras,
		StmtFillers:     mutatorFillers(),
	})
	if err != nil {
		return nil, err
	}
	return &genRuntime{
		gens:    gens,
		emitted: map[string]int{},
		quota:   max(1, len(cfg.Seeds)/4),
	}, nil
}

// ids lists the generator IDs in build order (the scheduler's gen-arm
// order).
func (g *genRuntime) ids() []string {
	out := make([]string, len(g.gens))
	for i, gen := range g.gens {
		out[i] = gen.ID()
	}
	return out
}

func (g *genRuntime) byID(id string) generate.Generator {
	for _, gen := range g.gens {
		if gen.ID() == id {
			return gen
		}
	}
	return nil
}

// generated reports cumulative emissions (the Progress/metrics gauge):
// each refreshed round emits quota seeds.
func (g *genRuntime) generated() int {
	if g == nil {
		return 0
	}
	return g.lastRound * g.quota
}

// refreshPool runs the corpus refresh of every round up to round not
// yet refreshed: quota slots of the pool are overwritten with fresh
// generator emissions, rotating through slot indices across rounds so
// every position eventually cycles. With a power schedule the generator
// for each slot is the gen-arm bandit's pick and the slot's (seed,
// plan-mode) arms are reset; with a nil sched, generators
// rotate round-robin. Runs on the campaign goroutine before the round's
// first task dispatch, and everything derives from (campaign seed,
// emission counts, merged yields), so resume and fleet handoff, which
// replay the merged tasks, rebuild the pool exactly.
func (g *genRuntime) refreshPool(round int, seeds []corpus.Seed, campaignSeed int64, sched *corpus.Scheduler) {
	if g == nil {
		return
	}
	for r := g.lastRound + 1; r <= round; r++ {
		for k := 0; k < g.quota; k++ {
			slot := (r-1)*g.quota + k
			idx := slot % len(seeds)
			gen := g.byID(sched.PickGen(slot))
			if gen == nil {
				gen = g.gens[slot%len(g.gens)]
			}
			id := gen.ID()
			seq := g.emitted[id]
			s := gen.Generate(campaignSeed, seq, 1)[0]
			g.emitted[id] = seq + 1
			seeds[idx] = s
			sched.ReplaceSeed(idx)
		}
		g.lastRound = r
	}
}
