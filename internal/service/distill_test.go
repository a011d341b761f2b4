package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
)

// TestDistillEndpoint walks the corpus distillation surface: a valid
// request returns a strictly smaller subset, and repeating it returns
// the same subset; malformed requests are rejected; and the corpus
// metrics series reflect the traffic.
func TestDistillEndpoint(t *testing.T) {
	sched := newTestScheduler(t, Config{})
	srv := httptest.NewServer(NewServer(sched).Handler())
	defer srv.Close()
	client := srv.Client()

	var first corpus.DistillReport
	req := `{"seed_count": 12, "seed": 5}`
	postJSON(t, client, srv.URL+"/corpus/distill", req, 200, &first)
	if first.Submitted != 12 {
		t.Fatalf("Submitted = %d, want 12", first.Submitted)
	}
	if first.Kept <= 0 || first.Kept >= first.Submitted {
		t.Fatalf("Kept = %d of %d, want a strict non-empty subset", first.Kept, first.Submitted)
	}
	if len(first.Scores) != 12 {
		t.Fatalf("Scores len = %d, want one per submitted seed", len(first.Scores))
	}

	// Determinism: the same request yields the same report.
	var second corpus.DistillReport
	postJSON(t, client, srv.URL+"/corpus/distill", req, 200, &second)
	if len(second.KeptSeeds) != len(first.KeptSeeds) {
		t.Fatalf("kept %d then %d seeds for the same request", len(first.KeptSeeds), len(second.KeptSeeds))
	}
	for i := range first.KeptSeeds {
		if first.KeptSeeds[i] != second.KeptSeeds[i] {
			t.Fatalf("kept set drifted: %v vs %v", first.KeptSeeds, second.KeptSeeds)
		}
	}

	// max_keep caps the subset.
	var capped corpus.DistillReport
	postJSON(t, client, srv.URL+"/corpus/distill", `{"seed_count": 12, "seed": 5, "max_keep": 2}`, 200, &capped)
	if capped.Kept > 2 {
		t.Errorf("max_keep=2 kept %d", capped.Kept)
	}

	// User seeds ride along with the generated pool.
	var withUser corpus.DistillReport
	postJSON(t, client, srv.URL+"/corpus/distill",
		`{"seed_count": 2, "seed": 5, "seeds": [{"name": "Mine", "source": "class T { static void main() { print(42); } }"}]}`,
		200, &withUser)
	if withUser.Submitted != 3 {
		t.Errorf("Submitted = %d, want 2 generated + 1 user seed", withUser.Submitted)
	}

	// Rejections: bad JSON, unknown fields, malformed seed source, bad
	// backend, a corpus too large to generate.
	postJSON(t, client, srv.URL+"/corpus/distill", `{not json`, 400, nil)
	postJSON(t, client, srv.URL+"/corpus/distill", `{"bogus": 1}`, 400, nil)
	postJSON(t, client, srv.URL+"/corpus/distill", `{"seeds": [{"source": "class {"}]}`, 400, nil)
	postJSON(t, client, srv.URL+"/corpus/distill", `{"seed_count": 2, "backend": "no-such-backend"}`, 400, nil)
	postJSON(t, client, srv.URL+"/corpus/distill", `{"seed_count": 2000000000}`, 400, nil)
	tooMany := DistillRequest{SeedCount: 2_000_000_000}
	if err := tooMany.Validate(); err == nil || !strings.Contains(err.Error(), "seed_count must be at most 10000") {
		t.Errorf("seed_count 2e9: Validate() err = %v, want the seed_count bound", err)
	}

	// The corpus metrics series count the successful requests.
	var buf bytes.Buffer
	sched.RenderMetrics(&buf)
	text := buf.String()
	for metric, want := range map[string]string{
		"mopfuzzd_corpus_distill_requests_total": "4",
		"mopfuzzd_corpus_parsecache_hits_total":  "", // present; value depends on pool overlap
		"mopfuzzd_corpus_sched_arms":             "0",
		"mopfuzzd_corpus_sched_energy":           "0",
	} {
		line := ""
		for _, l := range strings.Split(text, "\n") {
			if strings.HasPrefix(l, metric+" ") {
				line = l
				break
			}
		}
		if line == "" {
			t.Errorf("metric %s missing from /metrics output", metric)
			continue
		}
		if want != "" && line != metric+" "+want {
			t.Errorf("%s, want value %s", line, want)
		}
	}
}

// TestJobSpecScheduleRuns pins the service-level schedule knob: a job
// submitted with "schedule": "power" runs to completion and its final
// summary is deterministic across two identical submissions.
func TestJobSpecScheduleRuns(t *testing.T) {
	sched := newTestScheduler(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sched.Start(ctx)

	spec := core.JobSpec{SeedCount: 3, Budget: 90, Seed: 9, Schedule: "power"}
	run := func() *ResultSummary {
		j, err := sched.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		v := waitJob(t, sched, j.ID(), 5*time.Minute, func(v JobView) bool { return v.State.Terminal() })
		if v.State != StateDone {
			t.Fatalf("power job ended %s (error %q)", v.State, v.Error)
		}
		if v.Result == nil {
			t.Fatal("no result summary")
		}
		return v.Result
	}
	a, b := run(), run()
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Errorf("power schedule results differ across identical jobs:\nfirst  %s\nsecond %s", aj, bj)
	}

	if _, err := sched.Submit(core.JobSpec{SeedCount: 2, Schedule: "bogus"}); err == nil {
		t.Error("bogus schedule mode accepted by Submit")
	}
}
