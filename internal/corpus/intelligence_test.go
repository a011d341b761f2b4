package corpus

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/jit"
	"repro/internal/lang"
)

const shapeSrc = `
class S {
  int f;
  static void main() {
    S s = new S();
    int[] a = new int[4];
    int acc = 0;
    for (int i = 0; i < 4; i += 1) {
      for (int k = 0; k < 2; k += 1) {
        acc = acc + s.work(i);
      }
      a[i] = acc;
    }
    synchronized (s) { acc = acc + s.f; }
    try { acc = acc + a[0]; } catch (e) { acc = 0; }
    print(acc);
  }
  int work(int x) { return x + this.f; }
}`

func TestStaticFeaturesCounts(t *testing.T) {
	p := lang.MustParse(shapeSrc)
	ft := StaticFeatures("S", shapeSrc, p)
	if ft.Methods != 2 {
		t.Errorf("Methods = %d, want 2", ft.Methods)
	}
	if ft.LoopSites != 2 {
		t.Errorf("LoopSites = %d, want 2", ft.LoopSites)
	}
	if ft.MaxLoopDepth < 2 {
		t.Errorf("MaxLoopDepth = %d, want >= 2", ft.MaxLoopDepth)
	}
	if ft.SyncSites != 1 || ft.TrySites != 1 {
		t.Errorf("Sync/Try = %d/%d, want 1/1", ft.SyncSites, ft.TrySites)
	}
	if ft.ArraySites == 0 {
		t.Error("ArraySites = 0 despite new int[4] and index sites")
	}
	if ft.CallSites == 0 {
		t.Error("CallSites = 0 despite s.work(i) calls")
	}
	if ft.SourceHash != HashSource(shapeSrc) {
		t.Error("SourceHash does not match HashSource")
	}
}

// TestStaticFeaturesByteStable: two extractions of the same pool must
// serialize byte-identically — the property that makes the score cache
// a pure accelerator.
func TestStaticFeaturesByteStable(t *testing.T) {
	extract := func() []byte {
		var fs []*Features
		for _, s := range DefaultPool(8, 11) {
			fs = append(fs, StaticFeatures(s.Name, s.Source, s.Parse()))
		}
		data, err := json.Marshal(fs)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := extract(), extract()
	if string(a) != string(b) {
		t.Fatal("feature extraction is not byte-stable across runs")
	}
}

func TestDistanceProperties(t *testing.T) {
	var fs []*Features
	for i, s := range DefaultPool(6, 3) {
		ft := StaticFeatures(s.Name, s.Source, s.Parse())
		// Synthesize distinct dynamic halves so all three blend terms
		// are exercised.
		ft.OBV = []int64{int64(i), int64(i * 2), 3}
		if i%2 == 0 {
			ft.Coverage = []string{"vm.go:1", "vm.go:2"}
		} else {
			ft.Coverage = []string{"vm.go:2", "vm.go:9"}
		}
		fs = append(fs, ft)
	}
	for i := range fs {
		if d := Distance(fs[i], fs[i]); d != 0 {
			t.Errorf("Distance(x, x) = %g, want 0", d)
		}
		for j := range fs {
			dij, dji := Distance(fs[i], fs[j]), Distance(fs[j], fs[i])
			if dij != dji {
				t.Errorf("asymmetric: d(%d,%d)=%g d(%d,%d)=%g", i, j, dij, j, i, dji)
			}
			if dij < 0 || dij >= 1 {
				t.Errorf("d(%d,%d) = %g out of [0,1)", i, j, dij)
			}
		}
	}
	div := DiversityScores(fs)
	if len(div) != len(fs) {
		t.Fatalf("DiversityScores length %d, want %d", len(div), len(fs))
	}
	for i, d := range div {
		if d <= 0 {
			t.Errorf("seed %d diversity %g, want > 0 over a varied pool", i, d)
		}
	}
	if one := DiversityScores(fs[:1]); one[0] != 0 {
		t.Errorf("single-seed diversity = %g, want 0", one[0])
	}
}

// TestDistillShrinksAndDeterministic: near-duplicate seeds collapse, the
// kept subset is strictly smaller, sorted, stable across calls, and
// capped by maxKeep.
func TestDistillShrinks(t *testing.T) {
	var fs []*Features
	for i, s := range DefaultPool(6, 3) {
		ft := StaticFeatures(s.Name, s.Source, s.Parse())
		ft.OBV = []int64{int64(i % 2), 5}
		fs = append(fs, ft)
	}
	// Append exact duplicates of seed 0: zero distance, must never add
	// to the kept set.
	for n := 0; n < 4; n++ {
		dup := *fs[0]
		fs = append(fs, &dup)
	}
	kept := Distill(fs, 0, 0)
	if len(kept) == 0 || len(kept) >= len(fs) {
		t.Fatalf("kept %d of %d, want a strict non-empty subset", len(kept), len(fs))
	}
	for i := 1; i < len(kept); i++ {
		if kept[i] <= kept[i-1] {
			t.Fatalf("kept indices not strictly ascending: %v", kept)
		}
	}
	if again := Distill(fs, 0, 0); !reflect.DeepEqual(kept, again) {
		t.Fatalf("distill not deterministic: %v vs %v", kept, again)
	}
	if capped := Distill(fs, 0, 2); len(capped) > 2 {
		t.Errorf("maxKeep=2 kept %d", len(capped))
	}
	rep := BuildDistillReport(fs, 0, 0)
	if rep.Submitted != len(fs) || rep.Kept != len(kept) || len(rep.Scores) != len(fs) {
		t.Errorf("report shape: %+v", rep)
	}
	if rep.Spread != DefaultDistillSpread {
		t.Errorf("report spread = %g, want default %g", rep.Spread, DefaultDistillSpread)
	}
}

func schedulerFixture(seed int64) *Scheduler {
	div := []float64{0.1, 0.4, 0.2, 0.3}
	return NewScheduler(div, PlanModesFor(jit.PlanFull), seed)
}

// playRounds drives a scheduler through n rounds with a deterministic
// observation pattern and returns every planned slot.
func playRounds(s *Scheduler, rounds int) []int {
	var all []int
	nSeeds := 4
	for r := 0; r < rounds; r++ {
		s.StartRound(r)
		for i := 0; i < nSeeds; i++ {
			cursor := r*nSeeds + i
			seedIdx, _ := s.ArmFor(cursor)
			all = append(all, s.plan[i])
			s.Observe(cursor, float64(seedIdx), seedIdx%2)
		}
	}
	return all
}

func TestSchedulerDeterministic(t *testing.T) {
	a := playRounds(schedulerFixture(7), 6)
	b := playRounds(schedulerFixture(7), 6)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical schedulers planned different slots")
	}
	c := playRounds(schedulerFixture(8), 6)
	if reflect.DeepEqual(a, c) {
		t.Error("different campaign seeds produced identical schedules")
	}
}

// TestSchedulerCoverageFloor: every live seed must keep appearing in
// plans — the coverage slots' guarantee that exploitation cannot starve
// a seed out of detection.
func TestSchedulerCoverageFloor(t *testing.T) {
	s := schedulerFixture(7)
	seen := map[int]bool{}
	for r := 0; r < 4; r++ {
		s.StartRound(r)
		for i := 0; i < 4; i++ {
			seedIdx, _ := s.ArmFor(r*4 + i)
			seen[seedIdx] = true
			s.Observe(r*4+i, 0, 0)
		}
	}
	for seedIdx := 0; seedIdx < 4; seedIdx++ {
		if !seen[seedIdx] {
			t.Errorf("seed %d never scheduled in 4 rounds", seedIdx)
		}
	}
}

// TestSchedulerStateRoundTrip: a scheduler's state round-trips through
// the calls that built it. Resume rebuilds the schedule by replaying
// the merged tasks' round starts, retirements and observations, so a
// scheduler fed the same calls, stopped mid-round, must plan the same
// futures as the one it replays.
func TestSchedulerStateRoundTrip(t *testing.T) {
	type call struct {
		round, cursor int
		retire        bool
	}
	var calls []call
	play := func(s *Scheduler, from, to int) {
		for cursor := from; cursor < to; cursor++ {
			s.StartRound(cursor / 4)
			seedIdx, _ := s.ArmFor(cursor)
			retire := cursor == 5
			if retire {
				s.RetireSeed(seedIdx)
			}
			s.Observe(cursor, float64(seedIdx), seedIdx%2)
			calls = append(calls, call{cursor / 4, cursor, retire})
		}
	}
	a := schedulerFixture(7)
	play(a, 0, 14) // three rounds and half of the fourth
	b := schedulerFixture(7)
	for _, c := range calls {
		b.StartRound(c.round)
		seedIdx, _ := b.ArmFor(c.cursor)
		if c.retire {
			b.RetireSeed(seedIdx)
		}
		b.Observe(c.cursor, float64(seedIdx), seedIdx%2)
	}
	if !reflect.DeepEqual(a.plan, b.plan) || a.TotalEnergy() != b.TotalEnergy() {
		t.Fatalf("replayed scheduler differs: plan %v vs %v, energy %g vs %g", a.plan, b.plan, a.TotalEnergy(), b.TotalEnergy())
	}
	// Both schedulers must plan identical futures.
	for cursor := 14; cursor < 24; cursor++ {
		a.StartRound(cursor / 4)
		b.StartRound(cursor / 4)
		if !reflect.DeepEqual(a.plan, b.plan) {
			t.Fatalf("round %d plans diverge after the replay: %v vs %v", cursor/4, a.plan, b.plan)
		}
		a.Observe(cursor, 1, 0)
		b.Observe(cursor, 1, 0)
	}
}

// TestSchedulerRetire: a retired seed's arms drop to zero energy and
// stop appearing in freshly planned rounds.
func TestSchedulerRetire(t *testing.T) {
	s := schedulerFixture(7)
	s.StartRound(0)
	before := s.TotalEnergy()
	s.RetireSeed(1)
	if after := s.TotalEnergy(); after >= before {
		t.Errorf("energy %g -> %g after retiring a seed, want a drop", before, after)
	}
	for r := 1; r < 5; r++ {
		for i := 0; i < 4; i++ {
			s.Observe((r-1)*4+i, 0, 0)
		}
		s.StartRound(r)
		for i := 0; i < 4; i++ {
			if seedIdx, _ := s.ArmFor(r*4 + i); seedIdx == 1 {
				t.Fatalf("round %d still schedules retired seed 1", r)
			}
		}
	}
}

func TestParseScheduleMode(t *testing.T) {
	for _, in := range []string{"", "off"} {
		if m, err := ParseScheduleMode(in); err != nil || m != ScheduleOff {
			t.Errorf("ParseScheduleMode(%q) = %v, %v", in, m, err)
		}
	}
	if m, err := ParseScheduleMode("power"); err != nil || m != SchedulePower {
		t.Errorf("ParseScheduleMode(power) = %v, %v", m, err)
	}
	if _, err := ParseScheduleMode("bogus"); err == nil {
		t.Error("bogus schedule mode accepted")
	}
}

func TestPlanModesFor(t *testing.T) {
	if got := PlanModesFor(jit.PlanDefault); len(got) != 1 || got[0] != jit.PlanDefault {
		t.Errorf("PlanModesFor(default) = %v", got)
	}
	if got := PlanModesFor(jit.PlanFull); len(got) != 3 || got[2] != jit.PlanFull {
		t.Errorf("PlanModesFor(full) = %v", got)
	}
}

// TestParseCacheBounded: the FIFO bound evicts the oldest insertion and
// the stats count hits, misses, and evictions.
func TestParseCacheBounded(t *testing.T) {
	seeds := DefaultPool(3, 5)
	c := NewParseCacheSize(2)
	c.Parse(seeds[0])
	c.Parse(seeds[1])
	c.Parse(seeds[0]) // hit
	c.Parse(seeds[2]) // evicts seeds[0]
	st := c.Stats()
	if st.Misses != 3 || st.Hits != 1 || st.Evictions != 1 || st.Size != 2 {
		t.Errorf("stats = %+v, want 3 misses, 1 hit, 1 eviction, size 2", st)
	}
	// The evicted seed re-parses (a miss), transparently.
	c.Parse(seeds[0])
	if st := c.Stats(); st.Misses != 4 || st.Evictions != 2 {
		t.Errorf("post-reinsert stats = %+v", st)
	}
	var nilCache *ParseCache
	if p := nilCache.Parse(seeds[0]); p == nil {
		t.Error("nil cache must fall through to Parse")
	}
	if st := nilCache.Stats(); st != (ParseCacheStats{}) {
		t.Errorf("nil cache stats = %+v", st)
	}
}

func TestScoreCacheRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "scores.json")
	c := LoadScoreCache(path)
	if c.Len() != 0 {
		t.Fatalf("missing file loaded %d entries", c.Len())
	}
	for _, s := range DefaultPool(3, 9) {
		c.Put(StaticFeatures(s.Name, s.Source, s.Parse()))
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	second, _ := os.ReadFile(path)
	if string(first) != string(second) {
		t.Error("score cache file not byte-stable across saves")
	}

	back := LoadScoreCache(path)
	if back.Len() != c.Len() {
		t.Fatalf("reloaded %d entries, want %d", back.Len(), c.Len())
	}
	for _, h := range c.SortedHashes() {
		if !reflect.DeepEqual(back.Get(h), c.Get(h)) {
			t.Errorf("entry %s drifted across save/load", h)
		}
	}

	// Corrupt file: empty cache, no error.
	if err := os.WriteFile(path, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := LoadScoreCache(path); got.Len() != 0 {
		t.Errorf("corrupt cache loaded %d entries", got.Len())
	}
}
