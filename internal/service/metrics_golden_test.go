package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/triage"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenClock is a goroutine-safe fake clock: campaign, triage and
// scrape goroutines all read it, and only the test moves it.
type goldenClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *goldenClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *goldenClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestMetricsGolden pins the whole /metrics payload of two fixed
// daemons: a standalone scheduler after one in-process job (plan
// fuzzing, generators and a heap cap, so plan findings, generator
// emissions, faults and triage all move) plus one distillation
// request; and a coordinator after a fixed claim / lease / heartbeat /
// complete sequence against a scripted worker. Every series, its
// order, its HELP and TYPE lines and its number format are the
// contract dashboards and the fleet tests scrape, so a restructure of
// the metrics code must leave every byte alone. Regenerate with
// `go test ./internal/service -run TestMetricsGolden -update` only when
// a change is meant to alter the payload.
func TestMetricsGolden(t *testing.T) {
	t.Run("standalone", func(t *testing.T) {
		clock := &goldenClock{t: time.Unix(1_700_000_000, 0)}
		sched := goldenScheduler(t, clock)
		srv := httptest.NewServer(service.NewServer(sched).Handler())
		t.Cleanup(srv.Close)
		ctx, cancel := context.WithCancel(context.Background())
		sched.Start(ctx)
		t.Cleanup(func() { cancel(); sched.Wait() })

		j, err := sched.Submit(core.JobSpec{
			SeedCount:  3,
			Budget:     240,
			Seed:       7,
			Targets:    []string{"openj9-17"},
			PlanFuzz:   "full",
			Generators: []string{"randprog", "template"},
			HeapLimit:  20_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		waitGolden(t, sched, j.ID(), service.StateDone)
		req := &service.DistillRequest{SeedCount: 3, Seed: 7}
		if err := req.Validate(); err != nil {
			t.Fatal(err)
		}
		if _, err := sched.Distill(ctx, req); err != nil {
			t.Fatal(err)
		}
		clock.advance(100 * time.Second)
		checkGolden(t, "metrics-standalone.txt", scrape(t, srv.URL))
	})

	t.Run("coordinator", func(t *testing.T) {
		clock := &goldenClock{t: time.Unix(1_700_000_000, 0)}
		sched := goldenScheduler(t, clock)
		coord := fleet.NewCoordinator(fleet.CoordinatorConfig{
			Sched:    sched,
			LeaseTTL: 15 * time.Second,
			Now:      clock.now,
		})
		mux := http.NewServeMux()
		coord.Mount(mux)
		mux.Handle("/", service.NewServer(sched).Handler())
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		sched.SetRemote(coord)

		// The test plays the workers' claims, heartbeat and completion by
		// hand; the job is handed to w1 and does no work. A worker's
		// first claim is answered at once. w2 claims, then goes silent
		// past the lease TTL: dead. w1 claims after, and its second claim
		// waits at the coordinator until the job is handed to it.
		post(t, srv.URL+"/fleet/claim", fleet.ClaimRequest{Version: fleet.WireVersion, Worker: "w2"})
		clock.advance(20 * time.Second)
		post(t, srv.URL+"/fleet/claim", fleet.ClaimRequest{Version: fleet.WireVersion, Worker: "w1"})

		ctx, cancel := context.WithCancel(context.Background())
		sched.Start(ctx)
		t.Cleanup(func() { cancel(); sched.Wait() })
		j, err := sched.Submit(core.JobSpec{SeedCount: 2, Budget: 60, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		var claimed fleet.ClaimResponse
		postDecode(t, srv.URL+"/fleet/claim", fleet.ClaimRequest{Version: fleet.WireVersion, Worker: "w1"}, &claimed)
		if claimed.Assignment == nil || claimed.Assignment.Job != j.ID() {
			t.Fatalf("w1's claim got %+v, want the assignment of %s", claimed.Assignment, j.ID())
		}
		waitGolden(t, sched, j.ID(), service.StateRunning)

		lease := claimed.Assignment.Lease
		// A heartbeat whose checkpoint fails its checksum: the lease is
		// renewed and the upload rejected.
		post(t, srv.URL+"/fleet/heartbeat", fleet.Heartbeat{
			Version: fleet.WireVersion, Worker: "w1", Job: j.ID(), Lease: lease,
			Executions: 40, Checkpoint: []byte("{}"), CheckpointSum: "bad",
		})
		post(t, srv.URL+"/fleet/complete", fleet.CompleteRequest{
			Version: fleet.WireVersion, Worker: "w1", Job: j.ID(), Lease: lease,
			Executions: 64,
			Summary:    &service.ResultSummary{Executions: 64, SeedsFuzzed: 2, Findings: []service.FindingSummary{}},
			Stats:      triage.Stats{Received: 3, Novel: 1, Duplicates: 2, Reduced: 1},
		})
		waitGolden(t, sched, j.ID(), service.StateDone)
		clock.advance(5 * time.Second)
		checkGolden(t, "metrics-coordinator.txt", scrape(t, srv.URL))
	})
}

// goldenScheduler opens a scheduler under the fake clock.
func goldenScheduler(t *testing.T, clock *goldenClock) *service.Scheduler {
	t.Helper()
	sched, err := service.NewScheduler(service.Config{Dir: t.TempDir(), Now: clock.now, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

func waitGolden(t *testing.T, sched *service.Scheduler, id string, want service.JobState) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for time.Now().Before(deadline) {
		v := sched.Get(id).View()
		if v.State == want {
			return
		}
		if v.State.Terminal() {
			t.Fatalf("job %s: state %s (error %q), want %s", id, v.State, v.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s: timed out waiting for %s", id, want)
}

func post(t *testing.T, url string, body any) { postDecode(t, url, body, nil) }

// postDecode POSTs body as JSON, fails the test on a status other than
// 200, and decodes the response into out unless it is nil.
func postDecode(t *testing.T, url string, body, out any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, msg)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode response: %v", url, err)
		}
	}
}

func scrape(t *testing.T, base string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/metrics differs from %s\n--- got ---\n%s", path, got)
	}
}
