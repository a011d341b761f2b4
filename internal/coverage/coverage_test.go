package coverage

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestCatalogTotals(t *testing.T) {
	if got := TotalLines(); got != 126000 {
		t.Errorf("TotalLines = %d, want 126000 (the paper's ~126K)", got)
	}
	perComp := map[Component]int{}
	names := map[string]bool{}
	for _, r := range Catalog {
		if names[r.Name] {
			t.Errorf("duplicate region %q", r.Name)
		}
		names[r.Name] = true
		if r.Lines <= 0 {
			t.Errorf("region %q has %d lines", r.Name, r.Lines)
		}
		perComp[r.Comp] += r.Lines
	}
	want := map[Component]int{C1: 19000, C2: 60000, Runtime: 27000, GC: 20000}
	for c, w := range want {
		if perComp[c] != w {
			t.Errorf("%s lines = %d, want %d", c, perComp[c], w)
		}
	}
}

func TestTrackerBasics(t *testing.T) {
	tr := NewTracker()
	if tr.Percent(C2) != 0 {
		t.Error("fresh tracker should be 0%")
	}
	tr.Hit("c2.parse")
	tr.Hit("c2.parse") // idempotent
	tr.Hit("not-a-region")
	c, total := tr.Lines(C2)
	if c != 5000 || total != 60000 {
		t.Errorf("Lines(C2) = %d/%d", c, total)
	}
	if !tr.Covered("c2.parse") || tr.Covered("c2.codegen") {
		t.Error("Covered broken")
	}
	if tr.Hits() != 2 { // includes the unknown name
		t.Errorf("Hits = %d", tr.Hits())
	}
}

func TestTrackerMergeAndSummary(t *testing.T) {
	a, b := NewTracker(), NewTracker()
	a.Hit("c1.build")
	b.Hit("gc.mark")
	a.Merge(b)
	if !a.Covered("gc.mark") {
		t.Error("merge lost a hit")
	}
	wantPct := 100 * float64(3000+4000) / float64(TotalLines())
	if got := a.Summary(); got < wantPct-0.01 || got > wantPct+0.01 {
		t.Errorf("Summary = %v, want %v", got, wantPct)
	}
}

func TestNilTrackerSafe(t *testing.T) {
	var tr *Tracker
	tr.Hit("c2.parse") // must not panic
	tr.Merge(NewTracker())
	if tr.Hits() != 0 || tr.Covered("c2.parse") {
		t.Error("nil tracker should be inert")
	}
	if c, _ := tr.Lines(C2); c != 0 {
		t.Error("nil tracker covered lines")
	}
}

// Property: Percent is monotone under additional hits and bounded by 100.
func TestPercentMonotoneProperty(t *testing.T) {
	var regionNames []string
	for _, r := range Catalog {
		regionNames = append(regionNames, r.Name)
	}
	f := func(picks []uint16) bool {
		tr := NewTracker()
		prev := 0.0
		for _, p := range picks {
			tr.Hit(regionNames[int(p)%len(regionNames)])
			cur := tr.Summary()
			if cur < prev || cur > 100.0001 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFullCoverageIs100(t *testing.T) {
	tr := NewTracker()
	for _, r := range Catalog {
		tr.Hit(r.Name)
	}
	for _, c := range Components() {
		if p := tr.Percent(c); p < 99.999 {
			t.Errorf("%s full coverage = %v", c, p)
		}
	}
	if tr.Summary() < 99.999 {
		t.Errorf("Summary = %v", tr.Summary())
	}
}

// TestTrackerConcurrentHits: goroutines sharing one tracker, mixing
// catalog regions and unknown names, end with exactly the set a
// sequential tracker records. Run under -race.
func TestTrackerConcurrentHits(t *testing.T) {
	names := []string{"made.up", "another.name"}
	for i, r := range Catalog {
		if i%3 != 0 {
			names = append(names, r.Name)
		}
	}
	seq, shared := NewTracker(), NewTracker()
	for _, n := range names {
		seq.Hit(n)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for i := range names {
					shared.Hit(names[(i+w*7)%len(names)])
				}
				_ = shared.Hits()
				_ = shared.Covered(names[rep%len(names)])
			}
		}(w)
	}
	wg.Wait()
	if got, want := shared.Names(), seq.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("concurrent Names = %v\nwant %v", got, want)
	}
	if shared.Hits() != len(names) {
		t.Errorf("Hits = %d, want %d", shared.Hits(), len(names))
	}
}

// TestTrackerMergeAndLines: catalog and unknown names on both sides of
// a Merge reach the merged tracker's Names, Covered, Lines and Summary.
func TestTrackerMergeAndLines(t *testing.T) {
	a, b := NewTracker(), NewTracker()
	a.Hit("c2.parse")
	a.Hit("only.a")
	b.Hit("gc.mark")
	b.Hit("c2.parse")
	b.Hit("only.b")
	a.Merge(b)
	want := []string{"c2.parse", "gc.mark", "only.a", "only.b"}
	if got := a.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("merged Names = %v, want %v", got, want)
	}
	if a.Hits() != 4 || !a.Covered("only.b") || !a.Covered("gc.mark") {
		t.Errorf("merged Hits = %d, Covered(only.b) = %v, Covered(gc.mark) = %v",
			a.Hits(), a.Covered("only.b"), a.Covered("gc.mark"))
	}
	if c, tot := a.Lines(C2); c != 5000 || tot != 60000 {
		t.Errorf("Lines(C2) = %d/%d, want 5000/60000", c, tot)
	}
	if c, _ := a.Lines(GC); c != 4000 {
		t.Errorf("Lines(GC) covered = %d, want 4000", c)
	}
	wantPct := 100 * float64(5000+4000) / float64(TotalLines())
	if got := a.Summary(); got < wantPct-0.01 || got > wantPct+0.01 {
		t.Errorf("Summary = %v, want %v", got, wantPct)
	}
	// The source side is unchanged.
	if got := b.Names(); !reflect.DeepEqual(got, []string{"c2.parse", "gc.mark", "only.b"}) {
		t.Errorf("source Names = %v", got)
	}
}

// TestTrackerHitAllocs: a repeat hit allocates nothing.
func TestTrackerHitAllocs(t *testing.T) {
	tr := NewTracker()
	tr.Hit("runtime.objects")
	tr.Hit("not.in.catalog")
	if n := testing.AllocsPerRun(100, func() {
		tr.Hit("runtime.objects")
		tr.Hit("not.in.catalog")
	}); n != 0 {
		t.Errorf("repeat Hit allocated %.0f times, want 0", n)
	}
}

// BenchmarkTrackerHit measures the runtime's per-event cost: repeat
// hits on regions already marked, as the interpreter makes them.
func BenchmarkTrackerHit(b *testing.B) {
	tr := NewTracker()
	events := []string{"runtime.objects", "gc.alloc.fast", "runtime.statics", "gc.barriers"}
	for _, e := range events {
		tr.Hit(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Hit(events[i%len(events)])
	}
}
