//go:build !race

package repro

import (
	"flag"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/jvm"
)

// benchCampaignCfg is the campaign workload the throughput gate times:
// the standard corpus fuzzed against the reference target with the
// production fuzzer configuration.
func benchCampaignCfg(workers int) core.CampaignConfig {
	target := jvm.Reference()
	fcfg := core.DefaultConfig(target)
	fcfg.Seed = 1
	return core.CampaignConfig{
		Seeds:   corpus.DefaultPool(10, 1),
		Budget:  250,
		Targets: []jvm.Spec{target},
		Fuzz:    fcfg,
		Seed:    1,
		Workers: workers,
	}
}

// campaignExecsPerSec runs cfg once and returns its throughput.
func campaignExecsPerSec(cfg core.CampaignConfig) float64 {
	start := time.Now()
	res := core.RunCampaign(cfg)
	return float64(res.Executions) / time.Since(start).Seconds()
}

// TestParallelCampaignKeepsPace pins that the speculative worker pool
// never costs throughput when there are cores to use: on
// benchCampaignCfg's workload, 4 workers run at least as fast as 1, and
// with GOMAXPROCS = workers the best multi-core row is at least as fast
// as GOMAXPROCS 1.
//
// It is a wall-clock test that needs the host's cores to itself, so it
// stays out of race builds, skips below 2 CPUs, and runs only when
// selected by name: `go test ./...` runs package test binaries side by
// side, and a core shared with them is not a core the pool can use.
// Run it alone with
//
//	go test -p 1 -run '^TestParallelCampaignKeepsPace$' .
func TestParallelCampaignKeepsPace(t *testing.T) {
	if run := flag.Lookup("test.run"); run == nil || !strings.Contains(run.Value.String(), t.Name()) {
		t.Skip("wall-clock gate: runs only when selected by name with -run")
	}
	if runtime.NumCPU() < 2 {
		t.Skipf("needs at least 2 CPUs, have %d", runtime.NumCPU())
	}
	// Warm-up run so one-time costs (corpus generation, lazy init) do
	// not land on the first timed configuration.
	warm := benchCampaignCfg(1)
	warm.Budget /= 4
	core.RunCampaign(warm)

	seq := campaignExecsPerSec(benchCampaignCfg(1))
	par := campaignExecsPerSec(benchCampaignCfg(4))
	t.Logf("workers 1: %.1f execs/s, workers 4: %.1f execs/s (%.2fx)", seq, par, par/seq)
	if par < seq {
		t.Errorf("4 workers ran at %.2fx of 1 worker, want >= 1", par/seq)
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	atProcs := func(n int) float64 {
		runtime.GOMAXPROCS(n)
		return campaignExecsPerSec(benchCampaignCfg(n))
	}
	base := atProcs(1)
	best := 0.0
	for _, n := range []int{2, 4, 8} {
		if n > runtime.NumCPU() {
			break
		}
		rate := atProcs(n)
		t.Logf("GOMAXPROCS = workers = %d: %.1f execs/s (%.2fx of GOMAXPROCS 1)", n, rate, rate/base)
		best = max(best, rate)
	}
	if best < base {
		t.Errorf("best multi-core row ran at %.2fx of GOMAXPROCS 1, want >= 1", best/base)
	}
}
