package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/lang"
)

// TestMain lets the test binary serve as the benchmark's child process,
// so the tests drive the same parent/child code path as a real run.
func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2]))
	}
	os.Exit(m.Run())
}

// buildMinijvm returns $MINIJVM or a minijvm built into a temp dir.
func buildMinijvm(t *testing.T) string {
	t.Helper()
	if p := os.Getenv("MINIJVM"); p != "" {
		return p
	}
	path := filepath.Join(t.TempDir(), "minijvm")
	if out, err := exec.Command("go", "build", "-o", path, "repro/cmd/minijvm").CombinedOutput(); err != nil {
		t.Fatalf("building minijvm: %v\n%s", err, out)
	}
	return path
}

// TestWorkloadsAtTinyBudget runs every workload, traced, at a tiny budget
// through runWorkload, and checks the correctness gates and that every
// metric is reported with its unit.
func TestWorkloadsAtTinyBudget(t *testing.T) {
	state := t.TempDir()
	o := options{seed: 2, trace: 1, budget: 30, state: state, traceDir: filepath.Join(state, "trace"), minijvm: buildMinijvm(t)}
	for _, w := range workloads {
		run, err := runWorkload(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, p := range run.problems {
			t.Errorf("%s: %s", w.Name, p)
		}
		for _, c := range append(run.timed, run.traced...) {
			if c.Digest != run.timed[0].Digest {
				t.Errorf("%s: digests differ: %s vs %s", w.Name, c.Digest, run.timed[0].Digest)
			}
		}
		var buf bytes.Buffer
		untraced := o
		untraced.trace = 0
		e2e := run.report(&buf, untraced)
		layers := run.report(&buf, o)
		for _, m := range endToEnd {
			if v, ok := e2e[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s missing or without unit %s: %+v", w.Name, m.Name, m.Unit, v)
			}
		}
		for _, l := range perLayer {
			if v, ok := layers[l.Name]; !ok || v.Unit != l.Unit {
				t.Errorf("%s: layer metric %s missing or without unit %s: %+v", w.Name, l.Name, l.Unit, v)
			}
		}
		if frac := layers["jvm.unattributed_frac"].Value; frac > 0.10 {
			t.Errorf("%s: jvm.unattributed_frac %.3f, want at most 0.10", w.Name, frac)
		}
		spans, err := filepath.Glob(filepath.Join(o.traceDir, w.Name+"-*.jsonl"))
		if err != nil || len(spans) == 0 {
			t.Errorf("%s: no span files written (%v)", w.Name, err)
		}
	}
}

// TestLightRewriteMatchesOncePerSeed pins the light workloads' rewrite:
// the driver-loop pattern occurs exactly once in every DefaultPool seed,
// and the rewritten seeds still parse.
func TestLightRewriteMatchesOncePerSeed(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		pool := corpus.DefaultPool(poolSize, seed)
		for i, s := range lightSeeds(pool) {
			if n := len(mainLoop.FindAllStringIndex(pool[i].Source, -1)); n != 1 {
				t.Errorf("seed %d %s: driver loop matched %d times, want 1", seed, s.Name, n)
			}
			if !strings.Contains(s.Source, "for (int i = 0; i < 40;") {
				t.Errorf("seed %d %s: driver loop not rewritten", seed, s.Name)
			}
			if _, err := lang.Parse(s.Source); err != nil {
				t.Errorf("seed %d %s: rewritten seed does not parse: %v", seed, s.Name, err)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // unsorted on purpose
	}
	cases := []struct {
		vs     []float64
		p      float64
		want   float64
		wantOK bool
	}{
		{hundred, 0.5, 50, true},
		{hundred, 0.9, 90, true},      // ten samples beyond rank 90
		{hundred[1:], 0.9, 90, false}, // 99 samples: nine beyond rank 90
		{[]float64{7}, 0.5, 7, true},  // the median is always quotable
		{[]float64{7}, 0.9, 7, false}, // a p90 of one sample is not
		{nil, 0.5, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(c.vs, c.p)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(n=%d, %.1f) = %v, %v; want %v, %v", len(c.vs), c.p, got, ok, c.want, c.wantOK)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4) (the "exclusive" method).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		vs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.vs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.vs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		{ID: 5, Parent: 4, Name: "grandchild", Start: 61, End: 69},
	}
	self := selfTimes(spans)
	if self[1] != 50 || self[4] != 2 || self[5] != 8 {
		t.Errorf("self times %v, want parent 50, c 2, grandchild 8", self)
	}
}

// TestBenchmarkJSONMatchesDefinitions keeps BENCHMARK.json in step with
// the metrics and workloads this program reports.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %s %s %s %v", i, m, d.Name, d.Unit, d.Better, d.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		l := perLayer[i]
		if m.Name != l.Name || m.Unit != l.Unit || m.Better != l.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %s %s %s", i, m, l.Name, l.Unit, l.Better)
		}
	}
}
