package corpus

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/harness"
)

// scoreCacheVersion guards the serialized score-cache schema.
const scoreCacheVersion = 1

// scoreCacheFile is the on-disk form: feature vectors keyed by source
// hash, so a renamed seed with identical source still hits.
type scoreCacheFile struct {
	Version  int                  `json:"version"`
	Features map[string]*Features `json:"features"`
}

// ScoreCache persists per-seed feature vectors across campaigns, so
// resumed runs and fleet workers re-profiling the same corpus skip the
// dry-runs. Entries are keyed by source hash; scoring is deterministic,
// so a hit is byte-identical to re-extraction and cache use never
// changes campaign results.
type ScoreCache struct {
	path string
	m    map[string]*Features
}

// LoadScoreCache opens (or initializes) the cache at path. A missing
// file is an empty cache; a corrupt or version-skewed file is treated
// as empty rather than failing the campaign — the cache is a pure
// accelerator, never a source of truth.
func LoadScoreCache(path string) *ScoreCache {
	c := &ScoreCache{path: path, m: map[string]*Features{}}
	data, err := os.ReadFile(path)
	if err != nil {
		return c
	}
	var f scoreCacheFile
	if json.Unmarshal(data, &f) != nil || f.Version != scoreCacheVersion {
		return c
	}
	for k, v := range f.Features {
		if v != nil {
			c.m[k] = v
		}
	}
	return c
}

// Get returns the cached features for a source hash, or nil.
func (c *ScoreCache) Get(sourceHash string) *Features {
	if c == nil {
		return nil
	}
	return c.m[sourceHash]
}

// Put stores a freshly extracted feature vector.
func (c *ScoreCache) Put(f *Features) {
	if c == nil || f == nil || f.SourceHash == "" {
		return
	}
	c.m[f.SourceHash] = f
}

// Len reports the number of cached vectors.
func (c *ScoreCache) Len() int {
	if c == nil {
		return 0
	}
	return len(c.m)
}

// Save writes the cache atomically (temp file + rename). encoding/json
// writes map keys in sorted order, so the file is byte-stable.
func (c *ScoreCache) Save() error {
	if c == nil || c.path == "" {
		return nil
	}
	f := scoreCacheFile{Version: scoreCacheVersion, Features: c.m}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return fmt.Errorf("corpus: score cache encode: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(c.path), 0o755); err != nil {
		return fmt.Errorf("corpus: score cache dir: %w", err)
	}
	if err := harness.WriteFileAtomic(c.path, data); err != nil {
		return fmt.Errorf("corpus: score cache write: %w", err)
	}
	return nil
}

// SortedHashes returns the cached source hashes in sorted order (test
// and debugging aid).
func (c *ScoreCache) SortedHashes() []string {
	if c == nil {
		return nil
	}
	out := make([]string, 0, len(c.m))
	for k := range c.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
