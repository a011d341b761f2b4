package experiments

import (
	"io"
	"maps"
	"strings"
	"sync"
	"testing"

	"repro/internal/coverage"
)

// swapMemo replaces the memo's entries with a copy of runs and returns
// the entries it held.
func swapMemo(runs map[runKey]*toolRun) map[runKey]*toolRun {
	memo.Lock()
	defer memo.Unlock()
	prev := memo.runs
	memo.runs = map[runKey]*toolRun{}
	maps.Copy(memo.runs, runs)
	return prev
}

// TestSharedRunsRunOnce pins the memo on each pair of artifacts that
// print the same campaigns. The second renders the same bytes alone as
// after the first, and after the first it runs nothing: the memo still
// holds the first's runs and trackers and gains no entry. (The second's
// unshared runs are put back from its lone render first.) Another Seed
// or Executions misses.
func TestSharedRunsRunOnce(t *testing.T) {
	defer swapMemo(nil)
	// 20 executions end every campaign after its first seed run.
	budget := Budget{Executions: 20, Seeds: 2, Seed: 3}
	others := []Budget{{Executions: 21, Seeds: 2, Seed: 3}, {Executions: 20, Seeds: 2, Seed: 4}}
	for _, pair := range []struct {
		name          string
		first, second func(io.Writer, Budget)
		shared        int
	}{
		{"Table6/Figure2", Table6, Figure2, 3},
		{"Figure3/Figure4", Figure3, Figure4, 1},
		{"Figure5a/Figure5b", Figure5a, Figure5b, 3},
		{"Recall/PlanRecall", Recall, PlanRecall, 1},
	} {
		t.Run(pair.name, func(t *testing.T) {
			var alone, after strings.Builder
			swapMemo(nil)
			pair.second(&alone, budget)
			own := swapMemo(nil)
			pair.first(io.Discard, budget)
			first := swapMemo(nil)
			both, covs := maps.Clone(own), map[runKey]*coverage.Tracker{}
			for key, run := range first {
				both[key], covs[key] = run, run.Cov
			}
			if shared := len(first) + len(own) - len(both); shared != pair.shared {
				t.Fatalf("the artifacts share %d campaigns, want %d", shared, pair.shared)
			}

			swapMemo(both)
			pair.second(&after, budget)
			now := swapMemo(own)
			if after.String() != alone.String() {
				t.Errorf("after the first:\n%s\nalone:\n%s", after.String(), alone.String())
			}
			if len(now) != len(both) {
				t.Errorf("the second artifact ran %d campaigns after the first", len(now)-len(both))
			}
			for key, run := range first {
				if now[key] != run || run.Cov != covs[key] {
					t.Errorf("%+v: the memo lost the first artifact's run or tracker", key)
				}
			}

			for key := range own {
				for _, other := range others {
					if once(other, key.campaign, key.salt, func() *toolRun { return nil }) != nil {
						t.Errorf("%s at %+v hit the run of %+v", key.campaign, other, budget)
					}
				}
			}
		})
	}
}

// TestOnceConcurrent pins that callers racing on one new campaign all
// get the run stored first. Every caller misses and enters run before
// any returns, which holds only while once calls run without the lock.
func TestOnceConcurrent(t *testing.T) {
	defer swapMemo(nil)
	swapMemo(nil)
	runs := make([]*toolRun, 8)
	var entered, done sync.WaitGroup
	entered.Add(len(runs))
	release := make(chan struct{})
	for i := range runs {
		done.Add(1)
		go func() {
			defer done.Done()
			runs[i] = once(Budget{Executions: 1}, "race", 1, func() *toolRun {
				entered.Done()
				<-release
				return &toolRun{Execs: i}
			})
		}()
	}
	entered.Wait()
	close(release)
	done.Wait()
	for i, r := range runs {
		if r != runs[0] {
			t.Errorf("caller %d got run %+v, caller 0 got %+v", i, r, runs[0])
		}
	}
}
