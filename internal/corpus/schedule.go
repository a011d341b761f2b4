package corpus

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/jit"
)

// ScheduleMode selects how a campaign allocates its execution budget
// across seeds.
type ScheduleMode string

// Schedule modes.
const (
	// ScheduleOff walks seeds in cursor order — the pre-scheduling
	// campaign, byte-identical by construction.
	ScheduleOff ScheduleMode = "off"
	// SchedulePower allocates round slots across (seed, plan-mode) arms
	// by decayed-yield energy with UCB exploration.
	SchedulePower ScheduleMode = "power"
)

// ParseScheduleMode maps CLI/JSON spellings to a mode. "" and "off"
// both mean off, mirroring jit.ParsePlanMode.
func ParseScheduleMode(s string) (ScheduleMode, error) {
	switch s {
	case "", string(ScheduleOff):
		return ScheduleOff, nil
	case string(SchedulePower):
		return SchedulePower, nil
	}
	return "", fmt.Errorf("corpus: unknown schedule mode %q (want off or power)", s)
}

// PlanModesFor returns the plan-mode axis of the arm space for a
// campaign's plan-fuzz setting: every mode up to and including the
// configured one, so the scheduler can learn that (say) a seed yields
// only under fuzzed plans and spend its slots there.
func PlanModesFor(mode jit.PlanMode) []jit.PlanMode {
	switch mode {
	case jit.PlanMinimal:
		return []jit.PlanMode{jit.PlanDefault, jit.PlanMinimal}
	case jit.PlanFull:
		return []jit.PlanMode{jit.PlanDefault, jit.PlanMinimal, jit.PlanFull}
	default:
		return []jit.PlanMode{jit.PlanDefault}
	}
}

// Energy/selection tuning. Documented in DESIGN.md §13; changing any of
// these changes power-mode campaign results (they are part of the
// deterministic schedule definition, like a mutator's RNG draw order).
const (
	// energyFloor keeps zero-diversity seeds explorable.
	energyFloor = 0.2
	// findingWeight values one finding as this many units of
	// (saturated) OBV-delta yield.
	findingWeight = 5.0
	// yieldDecay multiplies every arm's accumulated yields once per
	// round boundary: recent evidence dominates.
	yieldDecay = 0.9
	// coverageStride reserves every coverageStride-th round slot as a
	// coverage slot: round-robin over live seeds at the configured
	// (topmost) plan mode. This floors every seed's sampling rate at
	// roughly 1/(stride x pool size) of the budget, so energy
	// exploitation can never starve a seed out of detection entirely —
	// bugs are reachable only from the seeds that exercise their
	// component, and a bandit with no coverage floor provably loses
	// them when their arms start cold.
	coverageStride = 2
	// scheduleSalt decorrelates the round-planning RNG stream from the
	// per-task mutation streams (cfg.Seed + cursor) and the plan
	// generator (planSeedSalt).
	scheduleSalt int64 = 0x73636864 // "schd"
	// scheduleRoundSalt spreads successive rounds across the seed space.
	scheduleRoundSalt int64 = 0x9E3779B9
)

// armState is one (seed, plan-mode) bandit arm.
type armState struct {
	seed    int // index into the campaign's seed pool
	mode    jit.PlanMode
	plays   int
	deltaY  float64 // decayed, saturated OBV-delta yield
	findY   float64 // decayed finding yield
	retired bool    // quarantined seed: energy pinned to zero
}

// genArm is one generator bandit arm: which seed source earns the
// between-round corpus-refresh slots. Arms exist only when the campaign
// runs the generator subsystem (EnableGenerators).
type genArm struct {
	id     string // generator ID ("randprog", "template", "style:<name>")
	plays  int
	deltaY float64
	findY  float64
}

// Scheduler is the campaign power schedule: a deterministic UCB-style
// bandit over (seed, plan-mode) arms. One round allocates len(seeds)
// slots (the same task count as cursor order, so budget accounting and
// the dead-pool check are unchanged); slots are sampled with
// replacement proportionally to arm energy x UCB bonus, from an RNG
// seeded by (campaign seed, round) — so the whole schedule is a pure
// function of the campaign seed and the merged observation prefix,
// which is what makes resume and fleet handoff byte-identical.
//
// Concurrency: PlanRound/Observe/RetireSeed run on the campaign merge
// goroutine. SeedAt/ArmFor are read by parallel workers, but only
// touch the immutable per-round plan and per-arm identity fields; the
// engine's round barrier guarantees no worker holds a task from a
// round whose plan is not yet computed.
//
// A nil *Scheduler is the schedule switched off: StartRound, Observe,
// ObserveGen, RetireSeed and ReplaceSeed do nothing, and PickGen,
// ArmCount and TotalEnergy return zero values.
type Scheduler struct {
	seed  int64
	div   []float64 // diversity prior per seed of the pool
	modes []jit.PlanMode
	arms  []armState
	round int
	plan  []int // arm index per slot; len == len(div) once planned
	plays int
	// Generator arms (nil without the generator subsystem).
	gens     []genArm
	genPlays int
}

// NewScheduler builds a scheduler over the seed pool, one diversity
// score per seed (DiversityScores output); modes is the plan axis
// (PlanModesFor).
func NewScheduler(diversity []float64, modes []jit.PlanMode, seed int64) *Scheduler {
	if len(modes) == 0 {
		modes = []jit.PlanMode{jit.PlanDefault}
	}
	s := &Scheduler{seed: seed, div: append([]float64(nil), diversity...), modes: modes}
	s.arms = make([]armState, 0, len(s.div)*len(modes))
	for i := range s.div {
		for _, m := range modes {
			s.arms = append(s.arms, armState{seed: i, mode: m})
		}
	}
	return s
}

func (s *Scheduler) energy(a *armState) float64 {
	if a.retired {
		return 0
	}
	return (energyFloor + s.div[a.seed]) * (1 + a.deltaY + findingWeight*a.findY)
}

// StartRound makes round r's slot plan current. Crossing round
// boundaries decays every arm's yields once per round. Idempotent for
// the current round: the plan is computed once, at the round's first
// task, from the statistics the previous rounds left, which is what
// lets resume rebuild it by replaying the merged tasks in order.
func (s *Scheduler) StartRound(r int) {
	if s == nil || s.plan != nil && r == s.round {
		return
	}
	if s.plan != nil {
		for s.round < r {
			s.decayArms()
			s.round++
		}
	}
	s.round = r
	s.plan = s.computePlan(r)
}

func (s *Scheduler) decayArms() {
	for i := range s.arms {
		s.arms[i].deltaY *= yieldDecay
		s.arms[i].findY *= yieldDecay
	}
	for i := range s.gens {
		s.gens[i].deltaY *= yieldDecay
		s.gens[i].findY *= yieldDecay
	}
}

// EnableGenerators adds one bandit arm per seed generator, in the given
// (deterministic) order. Called once, before the first round.
func (s *Scheduler) EnableGenerators(ids []string) {
	s.gens = make([]genArm, len(ids))
	for i, id := range ids {
		s.gens[i] = genArm{id: id}
	}
}

// ObserveGen credits one finished task's yield to the generator that
// emitted its seed. An id no arm carries — "" for a baseline-pool seed
// — is ignored.
func (s *Scheduler) ObserveGen(id string, delta float64, findings int) {
	if s == nil {
		return
	}
	for i := range s.gens {
		if s.gens[i].id != id {
			continue
		}
		a := &s.gens[i]
		a.plays++
		s.genPlays++
		if delta > 0 {
			a.deltaY += delta / (1 + delta)
		}
		a.findY += float64(findings)
		return
	}
}

// PickGen chooses the generator for refresh slot k: unplayed arms are
// drained round-robin (k indexes into them, so a multi-slot refresh
// spreads cold arms across slots instead of stacking one), then the arm
// with the best decayed yield x UCB score wins. Deterministic (argmax,
// no RNG draw) so refresh decisions replay identically from replayed
// statistics.
func (s *Scheduler) PickGen(k int) string {
	if s == nil {
		return ""
	}
	var unplayed []int
	for i := range s.gens {
		if s.gens[i].plays == 0 {
			unplayed = append(unplayed, i)
		}
	}
	if len(unplayed) > 0 {
		return s.gens[unplayed[k%len(unplayed)]].id
	}
	best, bestScore := -1, math.Inf(-1)
	for i := range s.gens {
		a := &s.gens[i]
		score := (1 + a.deltaY + findingWeight*a.findY) / float64(a.plays) *
			(1 + math.Sqrt(2*math.Log(float64(1+s.genPlays))/float64(1+a.plays)))
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return ""
	}
	return s.gens[best].id
}

// ReplaceSeed resets the statistics of seed index's arms when a
// refreshed (generated) seed takes the slot: a new program is a cold
// arm, and a quarantined slot comes back alive. The slot keeps its
// diversity prior (generated seeds are not re-scored mid-campaign).
func (s *Scheduler) ReplaceSeed(seedIndex int) {
	if s == nil {
		return
	}
	for i := range s.arms {
		if s.arms[i].seed == seedIndex {
			a := &s.arms[i]
			a.plays, a.deltaY, a.findY, a.retired = 0, 0, 0, false
		}
	}
}

// computePlan builds the round's slot plan: coverage slots (every
// coverageStride-th slot, round-robin over live seeds at the topmost
// plan mode — the same task kind cursor order would run) interleaved
// with energy-sampled slots. The RNG is seeded from the campaign seed
// and the round alone — no carried RNG state — so a resumed scheduler
// with the same arm statistics plans identical future rounds; the
// coverage rotation is a pure function of the round and the live set.
func (s *Scheduler) computePlan(round int) []int {
	rng := rand.New(rand.NewSource((s.seed ^ scheduleSalt) + int64(round)*scheduleRoundSalt))
	scores := make([]float64, len(s.arms))
	total := 0.0
	for i := range s.arms {
		e := s.energy(&s.arms[i])
		if e > 0 {
			e *= 1 + math.Sqrt(2*math.Log(float64(1+s.plays))/float64(1+s.arms[i].plays))
		}
		scores[i] = e
		total += e
	}
	var live []int // seed indices with at least one unretired arm
	for i := range s.div {
		if !s.arms[i*len(s.modes)].retired {
			live = append(live, i)
		}
	}
	topMode := len(s.modes) - 1
	plan := make([]int, len(s.div))
	nCov := (len(plan) + coverageStride - 1) / coverageStride
	cov := 0
	for slot := range plan {
		if slot%coverageStride == 0 && len(live) > 0 {
			// Coverage slot: the rotation advances by the round's slot
			// count, so over successive rounds every live seed is visited
			// even when the pool is larger than one round's quota.
			seedIdx := live[(round*nCov+cov)%len(live)]
			cov++
			plan[slot] = seedIdx*len(s.modes) + topMode
			continue
		}
		if total <= 0 {
			// Every arm retired or at zero energy: degrade to cursor
			// order under the default plan so the dead-pool check can
			// run its course.
			plan[slot] = slot * len(s.modes)
			continue
		}
		x := rng.Float64() * total
		pick := -1
		for i, sc := range scores {
			if sc <= 0 {
				continue
			}
			pick = i
			x -= sc
			if x <= 0 {
				break
			}
		}
		plan[slot] = pick
	}
	return plan
}

// armAt returns the arm scheduled for a cursor position. The round's
// plan must be current (StartRound(cursor/len(seeds)) has run).
func (s *Scheduler) armAt(cursor int) *armState {
	if s.plan == nil {
		panic("corpus: Scheduler.armAt before StartRound")
	}
	return &s.arms[s.plan[cursor%len(s.div)]]
}

// ArmFor resolves a cursor position to its scheduled seed index and
// plan mode. Safe for concurrent use by engine workers within the
// planned round.
func (s *Scheduler) ArmFor(cursor int) (seedIndex int, mode jit.PlanMode) {
	a := s.armAt(cursor)
	return a.seed, a.mode
}

// Observe merges one finished task's yield into its arm: the
// final-mutant OBV delta (saturated into [0,1)) and the number of bug
// findings. Called for every merged task in cursor order, including
// skipped/faulted ones (zero yield, but the play still counts against
// the arm's UCB bonus).
func (s *Scheduler) Observe(cursor int, delta float64, findings int) {
	if s == nil {
		return
	}
	a := s.armAt(cursor)
	a.plays++
	s.plays++
	if delta > 0 {
		a.deltaY += delta / (1 + delta)
	}
	a.findY += float64(findings)
}

// RetireSeed zeroes the energy of every arm of a quarantined seed.
// Without this a high-energy pathological seed keeps winning slots
// that the harness then skips, burning rounds (the quarantine/schedule
// interplay fix).
func (s *Scheduler) RetireSeed(seedIndex int) {
	if s == nil {
		return
	}
	for i := range s.arms {
		if s.arms[i].seed == seedIndex {
			s.arms[i].retired = true
		}
	}
}

// ArmCount reports the arm-space size.
func (s *Scheduler) ArmCount() int {
	if s == nil {
		return 0
	}
	return len(s.arms)
}

// TotalEnergy sums live arm energy — the /metrics gauge.
func (s *Scheduler) TotalEnergy() float64 {
	if s == nil {
		return 0
	}
	total := 0.0
	for i := range s.arms {
		total += s.energy(&s.arms[i])
	}
	return total
}
