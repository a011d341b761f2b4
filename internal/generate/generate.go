// Package generate is the pluggable program-generator subsystem: the
// scenario-diversity layer ROADMAP open item 1 calls for. Campaigns no
// longer fuzz a fixed pool — between rounds they refresh corpus slots
// with seeds from deterministic generators behind one Generator
// interface:
//
//   - "randprog": the existing internal/randprog generator wrapped as
//     the baseline source. When it is the *only* configured generator
//     the subsystem is off entirely and the campaign is byte-identical
//     to the pre-generator code path (pinned by test), exactly like
//     -schedule=off and -plan-fuzz=off.
//   - "template": template extraction in the spirit of Zang et al.
//     (Java JIT testing with template extraction) — corpus seeds and
//     minimized triage findings are parsed, expression/statement sites
//     become typed holes, and hole instantiation (the mutator stack
//     plus a typed expression synthesizer) emits fresh seeds. Found
//     bugs breed new scenarios.
//   - "style:<name>": grammar-level composition styles following Zhou
//     et al. — production weights biased so the constructs chosen JIT
//     passes interact on land in the same compilation unit (see
//     internal/generate/styles).
//
// Every generator is a pure function of (campaign seed, emission
// index): resume and fleet handoff replay emission counts from the
// checkpoint and regenerate byte-identical pools.
package generate

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/corpus"
	"repro/internal/generate/styles"
	"repro/internal/randprog"
)

// Generator is one deterministic seed source.
type Generator interface {
	// ID is the stable generator name ("randprog", "template",
	// "style:<name>"). It rides seeds, findings, triage reports, and
	// scheduler arms as provenance.
	ID() string
	// Generate emits n fresh seeds. seq is the number of seeds this
	// generator has already emitted in the campaign; seed k of the batch
	// is a pure function of (campaignSeed, seq+k), which is what lets a
	// resumed campaign regenerate the exact pool from emission counts
	// alone.
	Generate(campaignSeed int64, seq, n int) []corpus.Seed
}

// Baseline is the generator ID of the status-quo seed source. A
// campaign configured with only this generator runs the classic
// fixed-pool loop, byte-identical to builds without the subsystem.
const Baseline = "randprog"

// Salts decorrelating generator RNG streams from the mutation streams
// (cfg.Seed + cursor), the plan generator (0x706c616e), and the power
// schedule (0x73636864). Like the schedule tuning constants these are
// part of the deterministic campaign definition.
const (
	genSeqSalt int64 = 0x67656e73 // "gens": spreads emission indices
)

// emissionRNG builds the RNG for one seed emission. The generator ID is
// folded in so "template" and "style:x" draw decorrelated streams from
// the same (campaignSeed, seq).
func emissionRNG(id string, campaignSeed int64, seq int) *rand.Rand {
	var h int64
	for _, c := range id {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource((campaignSeed ^ h) + int64(seq)*genSeqSalt))
}

// Randprog wraps internal/randprog as the baseline Generator. Its
// emissions only appear when another generator is active too — alone it
// means "no refresh" (the pre-generator campaign).
type Randprog struct{}

// ID implements Generator.
func (Randprog) ID() string { return Baseline }

// Generate implements Generator.
func (Randprog) Generate(campaignSeed int64, seq, n int) []corpus.Seed {
	out := make([]corpus.Seed, 0, n)
	for k := 0; k < n; k++ {
		rng := emissionRNG(Baseline, campaignSeed, seq+k)
		out = append(out, corpus.Seed{
			Name:   fmt.Sprintf("Rnd%04d", seq+k+1),
			Source: randprog.Generate(rng),
			Gen:    Baseline,
		})
	}
	return out
}

// Config selects and parameterizes the generator set for a campaign.
type Config struct {
	// Generators lists source classes: "randprog", "template", "style".
	// "style" expands to one generator per selected style.
	Generators []string
	// Styles filters the composition styles when "style" is listed
	// (empty = every style in the registry).
	Styles []string
	// TemplateSources seeds template mining (typically the initial
	// corpus); TemplateExtras adds minimized findings from a triage
	// store. Extras are pinned into the campaign checkpoint so resume
	// and handoff mine the same template set even if the store grew.
	TemplateSources []corpus.Seed
	TemplateExtras  []string
	// StmtFillers are tried in order for statement holes before the
	// built-in synthesizer (the campaign wires the mutator stack here).
	StmtFillers []StmtFiller
}

// Normalize canonicalizes the generator list: deduplicated, validated,
// in configuration order. An empty list and a baseline-only list both
// return nil — the subsystem-off signal.
func Normalize(generators, styleNames []string) ([]string, error) {
	var out []string
	seen := map[string]bool{}
	for _, g := range generators {
		g = strings.TrimSpace(g)
		if g == "" || seen[g] {
			continue
		}
		switch g {
		case Baseline, "template", "style":
		default:
			return nil, fmt.Errorf("generate: unknown generator %q (want randprog, template, or style)", g)
		}
		seen[g] = true
		out = append(out, g)
	}
	for _, s := range styleNames {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if _, ok := styles.ByName(s); !ok {
			return nil, fmt.Errorf("generate: unknown style %q (known: %s)", s, strings.Join(styles.Names(), ", "))
		}
		if !seen["style"] {
			// Naming a style implies the style generator.
			seen["style"] = true
			out = append(out, "style")
		}
	}
	if len(out) == 0 || (len(out) == 1 && out[0] == Baseline) {
		return nil, nil
	}
	return out, nil
}

// Build instantiates the configured generator set in deterministic
// order. Returns nil when the configuration normalizes to
// subsystem-off.
func Build(cfg Config) ([]Generator, error) {
	names, err := Normalize(cfg.Generators, cfg.Styles)
	if err != nil {
		return nil, err
	}
	if names == nil {
		return nil, nil
	}
	var out []Generator
	for _, g := range names {
		switch g {
		case Baseline:
			out = append(out, Randprog{})
		case "template":
			tg, err := NewTemplateGenerator(cfg.TemplateSources, cfg.TemplateExtras, cfg.StmtFillers)
			if err != nil {
				return nil, err
			}
			out = append(out, tg)
		case "style":
			selected := append([]string(nil), cfg.Styles...)
			if len(selected) == 0 {
				selected = styles.Names()
			}
			sort.Strings(selected)
			for _, name := range selected {
				sp, ok := styles.ByName(name)
				if !ok {
					return nil, fmt.Errorf("generate: unknown style %q", name)
				}
				out = append(out, &StyleGenerator{Spec: sp})
			}
		}
	}
	return out, nil
}
