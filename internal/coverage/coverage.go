// Package coverage models the --enable-native-coverage instrumentation
// of the simulated JVM. The VM's source is divided into named line
// regions, each belonging to one of the four components the paper's
// Figure 2 reports (C1, C2, Runtime, GC). Executing a code path marks
// its region; coverage is the line-weighted fraction of marked regions.
package coverage

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Component is one of the JVM's four instrumented components.
type Component string

// Components.
const (
	C1      Component = "C1"
	C2      Component = "C2"
	Runtime Component = "Runtime"
	GC      Component = "GC"
)

// Components lists the four components in report order.
func Components() []Component { return []Component{C1, C2, Runtime, GC} }

// Region is a named block of VM source lines.
type Region struct {
	Name  string
	Comp  Component
	Lines int
}

// Tracker accumulates region hits across one or many executions. A hit
// set only ever grows, so campaign-wide trackers can be shared by
// parallel workers, and the final contents are order-independent.
//
// Catalog regions are marked in a bitset indexed like Catalog: a repeat
// hit is one atomic load, and only the first hit of a region writes.
// Names outside Catalog go to a mutex-guarded map.
type Tracker struct {
	marks []atomic.Uint64 // bit i%64 of word i/64 = Catalog[i] hit

	mu    sync.Mutex
	other map[string]bool // hit names not in Catalog
}

// catalogIndex maps each Catalog region name to its position. Built
// once at package init and read-only after, so Hit reads it unlocked.
var catalogIndex = func() map[string]int {
	idx := make(map[string]int, len(Catalog))
	for i, r := range Catalog {
		idx[r.Name] = i
	}
	return idx
}()

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{marks: make([]atomic.Uint64, (len(Catalog)+63)/64)}
}

// marked reports whether Catalog[i] was hit.
func (t *Tracker) marked(i int) bool {
	return t.marks[i/64].Load()&(1<<(i%64)) != 0
}

// setBits ors m into w. It writes only when m has a bit w lacks, so
// repeat hits never contend on the cache line.
func setBits(w *atomic.Uint64, m uint64) {
	for {
		old := w.Load()
		if old|m == old || w.CompareAndSwap(old, old|m) {
			return
		}
	}
}

// Hit marks a region as executed. Unknown names are tolerated (and
// ignored by reports) so instrumentation sites never fail.
func (t *Tracker) Hit(name string) {
	if t == nil {
		return
	}
	if i, ok := catalogIndex[name]; ok {
		setBits(&t.marks[i/64], 1<<(i%64))
		return
	}
	t.mu.Lock()
	if t.other == nil {
		t.other = map[string]bool{}
	}
	t.other[name] = true
	t.mu.Unlock()
}

// Hits returns the number of distinct regions marked.
func (t *Tracker) Hits() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.marks {
		n += bits.OnesCount64(t.marks[i].Load())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return n + len(t.other)
}

// Names returns the hit region names in sorted order — the wire
// encoding the out-of-process execution backend ships back to the
// parent, which replays them with Hit.
func (t *Tracker) Names() []string {
	if t == nil {
		return nil
	}
	var out []string
	for i, r := range Catalog {
		if t.marked(i) {
			out = append(out, r.Name)
		}
	}
	out = append(out, t.otherNames()...)
	sort.Strings(out)
	return out
}

// otherNames returns the hit names outside Catalog, unsorted.
func (t *Tracker) otherNames() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.other))
	for k := range t.other {
		out = append(out, k)
	}
	return out
}

// Covered reports whether the named region was hit.
func (t *Tracker) Covered(name string) bool {
	if t == nil {
		return false
	}
	if i, ok := catalogIndex[name]; ok {
		return t.marked(i)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.other[name]
}

// Merge folds another tracker's hits into t.
func (t *Tracker) Merge(o *Tracker) {
	if t == nil || o == nil {
		return
	}
	for i := range o.marks {
		setBits(&t.marks[i], o.marks[i].Load())
	}
	for _, k := range o.otherNames() {
		t.Hit(k)
	}
}

// Lines returns (covered, total) line counts for a component.
func (t *Tracker) Lines(comp Component) (covered, total int) {
	for i, r := range Catalog {
		if r.Comp != comp {
			continue
		}
		total += r.Lines
		if t != nil && t.marked(i) {
			covered += r.Lines
		}
	}
	return covered, total
}

// Percent returns the line coverage percentage for a component.
func (t *Tracker) Percent(comp Component) float64 {
	c, tot := t.Lines(comp)
	if tot == 0 {
		return 0
	}
	return 100 * float64(c) / float64(tot)
}

// Summary returns the line-weighted coverage percentage across all four
// components (the paper's "Summary" bar).
func (t *Tracker) Summary() float64 {
	var c, tot int
	for _, comp := range Components() {
		cc, ct := t.Lines(comp)
		c += cc
		tot += ct
	}
	if tot == 0 {
		return 0
	}
	return 100 * float64(c) / float64(tot)
}

// TotalLines returns the instrumented line count of the whole VM
// (~126K, matching the paper's statement about OpenJDK17's four main
// components).
func TotalLines() int {
	n := 0
	for _, r := range Catalog {
		n += r.Lines
	}
	return n
}
