package core

import (
	"math/rand"
	"sort"

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
// generator set plus the checkpointed emission counts and pool-slot
// overlay (the checkpoint's generate block). A nil *genRuntime is the
// subsystem switched off: the pool stays static.
type genRuntime struct {
	gens  []generate.Generator
	st    *generate.State
	quota int // pool slots refreshed per round boundary
}

// newGenRuntime builds the configured generator set over the campaign's
// (post-distill) pool. extras are the pinned template-mining extras —
// cfg.TemplateExtras on a fresh run, the checkpointed set on resume.
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
		gens:  gens,
		st:    &generate.State{Emitted: map[string]int{}, Extras: append([]string(nil), extras...)},
		quota: max(1, len(cfg.Seeds)/4),
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

// generated reports cumulative emissions (the Progress/metrics gauge).
func (g *genRuntime) generated() int {
	if g == nil {
		return 0
	}
	n := 0
	for _, c := range g.st.Emitted {
		n += c
	}
	return n
}

// refreshPool runs the corpus refresh of every round up to round not
// yet refreshed: quota slots of the pool are overwritten with fresh
// generator emissions, rotating through slot indices across rounds so
// every position eventually cycles. With a power schedule the generator
// for each slot is the gen-arm bandit's pick and the slot's (seed,
// plan-mode) arms are renamed and reset; with a nil sched, generators
// rotate round-robin. Runs on the campaign goroutine before the round's
// first task dispatch, and everything derives from (campaign seed,
// emission counts), so resume and fleet handoff replay it exactly.
func (g *genRuntime) refreshPool(round int, seeds []corpus.Seed, campaignSeed int64, sched *corpus.Scheduler) {
	if g == nil {
		return
	}
	for r := g.st.LastRound + 1; r <= round; r++ {
		for k := 0; k < g.quota; k++ {
			slot := (r-1)*g.quota + k
			idx := slot % len(seeds)
			gen := g.byID(sched.PickGen(slot))
			if gen == nil {
				gen = g.gens[slot%len(g.gens)]
			}
			id := gen.ID()
			seq := g.st.Emitted[id]
			s := gen.Generate(campaignSeed, seq, 1)[0]
			g.st.Emitted[id] = seq + 1
			seeds[idx] = s
			sched.ReplaceSeed(idx, s.Name)
			g.setSlot(idx, s)
		}
		g.st.LastRound = r
	}
}

// setSlot upserts the slot overlay entry for a pool index, keeping the
// overlay sorted by index for stable checkpoint bytes.
func (g *genRuntime) setSlot(idx int, s corpus.Seed) {
	sl := generate.Slot{Index: idx, Name: s.Name, Source: s.Source, Gen: s.Gen}
	for i := range g.st.Slots {
		if g.st.Slots[i].Index == idx {
			g.st.Slots[i] = sl
			return
		}
	}
	g.st.Slots = append(g.st.Slots, sl)
	sort.Slice(g.st.Slots, func(i, j int) bool { return g.st.Slots[i].Index < g.st.Slots[j].Index })
}

// state snapshots the runtime for a checkpoint (nil-safe).
func (g *genRuntime) state() *generate.State {
	if g == nil {
		return nil
	}
	return g.st.Clone()
}
