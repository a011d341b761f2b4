package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/jvm"
	"repro/internal/profile"
)

// TestCampaignIsolatedFromPriorWork pins that a campaign's results are
// a pure function of its own configuration: heavy unrelated work in the
// same process first (campaigns at other seeds, worker counts and OBV
// paths, a burst of profile-log extraction, a campaign under a shifted
// GOMAXPROCS) must not move a single detection. That holds only while
// non-test code uses no global math/rand, jit.Cache stays
// campaign-scoped and fully keyed, the heap budget counts logical units
// rather than wall-clock or allocator state, sync.Pools reset their
// contents, and the in-process executor stays stateless.
func TestCampaignIsolatedFromPriorWork(t *testing.T) {
	budget := Budget{Executions: 300, Seeds: 8, Seed: 1}
	leg := func() string {
		detected, _, execs, err := legDetected(budget, core.JobSpec{Schedule: "power", PlanFuzz: "full"})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(detected)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("execs=%d detected=%s", execs, b)
	}
	cold := leg()

	// Unrelated campaigns: 125 executions over 8 seeds against the
	// reference target.
	other := func(seed int64, structured bool, workers int) {
		fcfg := core.DefaultConfig(jvm.Reference())
		fcfg.Seed = seed
		fcfg.StructuredOBV = structured
		core.RunCampaign(core.CampaignConfig{
			Seeds:   corpus.DefaultPool(8, seed),
			Budget:  125,
			Targets: []jvm.Spec{jvm.Reference()},
			Fuzz:    fcfg,
			Seed:    seed,
			Workers: workers,
		})
	}
	other(3, true, 4)
	other(1, false, 1) // the regex-over-log OBV path
	for i := 0; i < 200; i++ {
		rec := profile.NewRecorder(profile.DefaultFlags())
		rec.Emitf(profile.FlagPrintCompilation, "    %d    3    Foo::work (hot)", i)
		rec.EmitBehaviorf(profile.FlagPrintInlining, profile.LineInline, "@ %d Foo::work (%d nodes)   inline (hot)", i, 12)
		rec.EmitBehaviorf(profile.FlagTraceLoopOpts, profile.LineUnroll, "Unroll %d(%d)", 8, 16)
		profile.ExtractOBV(rec.Text())
	}
	prev := runtime.GOMAXPROCS(2)
	other(2, true, 2)
	runtime.GOMAXPROCS(prev)

	if warm := leg(); warm != cold {
		t.Errorf("campaign shifted after unrelated in-process work:\ncold %s\nwarm %s", cold, warm)
	}
}
