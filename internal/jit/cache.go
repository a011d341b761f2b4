package jit

import (
	"fmt"
	"sync"

	"repro/internal/bytecode"
	"repro/internal/profile"
)

// CacheableHook is a Hook whose observable behavior is a pure function
// of a fingerprintable state: given the same IR, tier, and fingerprint,
// it makes the same decisions and triggers the same bug IDs. Such hooks
// let whole compilations be cached — on a hit the side effects are
// replayed instead of re-derived. The bug injector qualifies (its only
// cross-compilation state is the set of already-triggered one-shot
// effects); arbitrary test hooks do not, and their presence disables
// the cache.
type CacheableHook interface {
	Hook
	// CacheFingerprint identifies the armed defect set plus any
	// execution-local state that can change compile output.
	CacheFingerprint() string
	// TriggeredIDs returns the bug IDs triggered so far this execution,
	// in trigger order.
	TriggeredIDs() []string
	// ReplayTriggered re-applies the trigger-state transitions a cached
	// compilation performed, in recorded order.
	ReplayTriggered(ids []string)
}

// recordedLine is one profile emission captured during a cached
// compilation. Lines are captured before flag gating so an entry can be
// replayed under any flag set; the recorder re-applies its own gate.
type recordedLine struct {
	flag      profile.Flag
	behaviors []profile.Behavior
	text      string
}

// cacheEntry holds everything needed to replay one successful
// compilation: the emitted code (read-only at execution time — runtime
// trap state lives on Compiled), the captured profile emissions and
// coverage regions, the bug IDs the compile triggered, and the finished
// context for OnCompiled observers. The context is stripped to what
// outlives the compilation — tier, events, counts, escape states and
// miscompile flags — so an entry pins neither the optimized IR nor the
// compiling execution's channels (Env, Log, Cov, Hook).
type cacheEntry struct {
	code  *bytecode.Function
	lines []recordedLine
	cover []string
	trig  []string
	ctx   *Context
}

// CacheStats reports cache effectiveness for the bench harness.
type CacheStats struct {
	Hits, Misses int64
}

// Cache holds the compiled methods of one program, the one it was last
// probed for (the CacheSalt), and drops them when probed for another:
// its traffic is a differential's legs, which re-run one program. Keys
// add method, tier, pipeline options, hook fingerprint, plan fingerprint,
// and deopt count — every other input a compilation reads — so a hit is
// byte-equivalent to recompiling. Safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	salt    string // the program the entries belong to
	entries map[string]*cacheEntry
	max     int
	stats   CacheStats
}

// NewCache returns a cache bounded to roughly maxEntries compilations
// (0 picks a default). When full the whole map is dropped rather than
// evicting piecemeal: a hit is equivalent to a miss, so the reset policy
// cannot affect results, only hit rate.
func NewCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	return &Cache{entries: make(map[string]*cacheEntry), max: maxEntries}
}

func (c *Cache) get(salt, key string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if salt != c.salt {
		c.salt = salt
		clear(c.entries)
	}
	if e, ok := c.entries[key]; ok {
		c.stats.Hits++
		return e
	}
	c.stats.Misses++
	return nil
}

// put drops e when another program has probed the cache since salt's.
func (c *Cache) put(salt, key string, e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if salt != c.salt {
		return
	}
	if len(c.entries) >= c.max {
		c.entries = make(map[string]*cacheEntry, c.max)
	}
	c.entries[key] = e
}

// Stats returns a snapshot of the hit/miss counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the current number of cached compilations.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// captureEmitter tees profile emissions into a cache entry while
// forwarding them to the execution's recorder (which applies flag
// gating; the captured copy stays ungated).
type captureEmitter struct {
	next  *profile.Recorder
	lines []recordedLine
}

func (t *captureEmitter) Emitf(flag profile.Flag, format string, args ...any) {
	t.EmitBehaviorf(flag, nil, format, args...)
}

func (t *captureEmitter) EmitBehaviorf(flag profile.Flag, behaviors []profile.Behavior, format string, args ...any) {
	text := fmt.Sprintf(format, args...)
	t.lines = append(t.lines, recordedLine{flag: flag, behaviors: behaviors, text: text})
	t.next.AppendLine(flag, behaviors, text)
}

var (
	_ profile.Emitter         = (*captureEmitter)(nil)
	_ profile.BehaviorEmitter = (*captureEmitter)(nil)
)
