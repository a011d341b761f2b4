//go:build !race

package exec_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/jvm"
	"repro/internal/lang"
)

// amortizeSrc is light enough that process spawn and recompilation
// dominate a cold child's execution cost.
const amortizeSrc = `class B {
  static void main() {
    int s = 0;
    for (int i = 0; i < 50; i += 1) { s = s + i; }
    print(s);
  }
}`

// TestPoolAmortizesSpawn pins what the warm pool exists for: on a light
// program, single executions on a warm child (live compile cache, no
// spawn) run at least 5x faster than spawn-per-exec, and differentials
// ride one batch per child. It is a wall-clock test, so it stays out of
// race builds.
func TestPoolAmortizesSpawn(t *testing.T) {
	prog, err := lang.Parse(amortizeSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := lang.Check(prog); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ref := jvm.Reference()
	const singles = 40

	timeSingles := func(pool *exec.Pool) float64 {
		start := time.Now()
		for i := 0; i < singles; i++ {
			if _, err := pool.Execute(ctx, prog, ref, jvm.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		return singles / time.Since(start).Seconds()
	}

	spawn := spawnPerExec(t, exec.PoolConfig{Children: 1})
	spawnRate := timeSingles(spawn)
	if n := spawn.Stats().Spawns; n != singles {
		t.Errorf("spawn-per-exec Spawns = %d, want %d (one child per execution)", n, singles)
	}

	warm := poolBackend(t, exec.PoolConfig{Children: 1})
	// One warm-up execution, so the timed loop runs on a warm child: the
	// steady state a campaign runs in.
	if _, err := warm.Execute(ctx, prog, ref, jvm.Options{}); err != nil {
		t.Fatal(err)
	}
	warmRate := timeSingles(warm)
	for i := 0; i < singles/4; i++ {
		if _, err := warm.ExecuteDifferential(ctx, prog, jvm.AllSpecs(), jvm.Options{}); err != nil {
			t.Fatal(err)
		}
	}

	speedup := warmRate / spawnRate
	st := warm.Stats()
	t.Logf("spawn-per-exec %.1f execs/s, warm pool %.1f execs/s (%.1fx); warm spawns %d, avoided %d, mean batch %.1f over %d batches",
		spawnRate, warmRate, speedup, st.Spawns, st.SpawnsAvoided, st.MeanBatch(), st.Batches)
	if speedup < 5 {
		t.Errorf("warm pool is %.1fx spawn-per-exec, want >= 5x", speedup)
	}
	if st.Spawns != 1 {
		t.Errorf("warm pool Spawns = %d, want 1 (one child serves every execution)", st.Spawns)
	}
	if mb := st.MeanBatch(); mb <= 1 {
		t.Errorf("warm pool MeanBatch = %.2f, want > 1 (differentials must be batched)", mb)
	}
	if st.SpawnsAvoided <= 0 {
		t.Errorf("warm pool SpawnsAvoided = %d, want > 0", st.SpawnsAvoided)
	}
}
