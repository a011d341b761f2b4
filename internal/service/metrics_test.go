package service

import (
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
)

// fakeClock stands still, pinning rate/uptime math.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func render(r *Registry) string {
	var sb strings.Builder
	r.Render(&sb)
	return sb.String()
}

// metricValue returns the value of the unlabeled series name ("" when
// it is missing).
func metricValue(out, name string) string {
	for _, l := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(l, name+" "); ok {
			return v
		}
	}
	return ""
}

func wantLine(t *testing.T, out, line string) {
	t.Helper()
	if !strings.Contains(out, line+"\n") {
		t.Errorf("metrics output missing %q\n---\n%s", line, out)
	}
}

// TestMetricsRender pins the registry's exposition format: families in
// registration order, fixed label values at zero, sorted label values,
// cumulative histogram buckets, %d integers and %g floats.
func TestMetricsRender(t *testing.T) {
	r := &Registry{}
	var snap int64
	r.OnScrape(func() { snap++ })
	c := r.Counter("x_total", "A counter.")
	v := r.CounterVec("x_by_class_total", "A labeled counter.", "class", "b", "a")
	h := r.Histogram("x_delta", "A histogram.", []float64{0, 1, 2.5})
	r.Int("x_snapshots", "Scrapes so far.", "gauge", func() int64 { return snap })
	r.Float("x_ratio", "A float.", func() float64 { return 0.25 })
	r.Ints("x_state", "A labeled gauge.", "gauge", "state", func() []Sample {
		return []Sample{{"live", 2}, {"dead", 1}}
	})

	c.Add(40)
	c.Add(10)
	c.Add(0)  // ignored
	c.Add(-1) // ignored
	c.Inc()
	v.Inc("c")
	v.Inc("b")
	for _, d := range []float64{0, 1, 2, 3, 1e6} {
		h.Observe(d)
	}
	want := `# HELP x_total A counter.
# TYPE x_total counter
x_total 51
# HELP x_by_class_total A labeled counter.
# TYPE x_by_class_total counter
x_by_class_total{class="a"} 0
x_by_class_total{class="b"} 1
x_by_class_total{class="c"} 1
# HELP x_delta A histogram.
# TYPE x_delta histogram
x_delta_bucket{le="0"} 1
x_delta_bucket{le="1"} 2
x_delta_bucket{le="2.5"} 3
x_delta_bucket{le="+Inf"} 5
x_delta_sum 1.000006e+06
x_delta_count 5
# HELP x_snapshots Scrapes so far.
# TYPE x_snapshots gauge
x_snapshots 1
# HELP x_ratio A float.
# TYPE x_ratio gauge
x_ratio 0.25
# HELP x_state A labeled gauge.
# TYPE x_state gauge
x_state{state="live"} 2
x_state{state="dead"} 1
`
	if got := render(r); got != want {
		t.Errorf("render:\n%s\nwant:\n%s", got, want)
	}
	if got := render(r); !strings.Contains(got, "x_snapshots 2\n") {
		t.Errorf("OnScrape did not run once per scrape:\n%s", got)
	}
}

func TestRenderExecPool(t *testing.T) {
	r := &Registry{}
	st, live := exec.Stats{
		Executions:      40,
		Batches:         8,
		Spawns:          3,
		SpawnsAvoided:   37,
		RecycledByCount: 2,
		RecycledByMem:   1,
		Killed:          4,
		Retries:         1,
		Faults:          1,
	}, 2
	registerExecPool(r, func() (exec.Stats, int) { return st, live })
	out := render(r)
	wantLine(t, out, `mopfuzzd_execpool_children_live 2`)
	wantLine(t, out, `mopfuzzd_execpool_executions_total 40`)
	wantLine(t, out, `mopfuzzd_execpool_batches_total 8`)
	wantLine(t, out, `mopfuzzd_execpool_mean_batch_size 5`)
	wantLine(t, out, `mopfuzzd_execpool_spawns_total 3`)
	wantLine(t, out, `mopfuzzd_execpool_spawns_avoided_total 37`)
	wantLine(t, out, `mopfuzzd_execpool_recycled_total{reason="executions"} 2`)
	wantLine(t, out, `mopfuzzd_execpool_recycled_total{reason="memory"} 1`)
	wantLine(t, out, `mopfuzzd_execpool_killed_total 4`)
	wantLine(t, out, `mopfuzzd_execpool_retries_total 1`)
	wantLine(t, out, `mopfuzzd_execpool_faults_total 1`)

	// Without a pool the series still exist at zero.
	st, live = exec.Stats{}, 0
	out = render(r)
	wantLine(t, out, `mopfuzzd_execpool_children_live 0`)
	wantLine(t, out, `mopfuzzd_execpool_mean_batch_size 0`)
}

func TestMetricsZeroSafe(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	s := newTestScheduler(t, Config{Now: clock.now})
	// Zero uptime and zero triage volume must not divide by zero.
	out := render(s.Metrics())
	wantLine(t, out, `mopfuzzd_executions_per_second 0`)
	wantLine(t, out, `mopfuzzd_triage_dedup_hit_ratio 0`)
	wantLine(t, out, `mopfuzzd_obv_delta_bucket{le="+Inf"} 0`)
	wantLine(t, out, `mopfuzzd_generate_jobs_total 0`)
	wantLine(t, out, `mopfuzzd_generate_seeds_total 0`)
	wantLine(t, out, `mopfuzzd_jobs{state="queued"} 0`)
	wantLine(t, out, `mopfuzzd_faults_total{class="harness-fault"} 0`)
}
