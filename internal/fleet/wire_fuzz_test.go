package fleet

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/service"
)

// fleetRoutes are the worker → coordinator endpoints FuzzFleetWire
// drives; the fuzzed route byte picks one.
var fleetRoutes = []string{"/fleet/claim", "/fleet/heartbeat", "/fleet/complete"}

// FuzzFleetWire posts arbitrary bodies to the coordinator's fleet
// endpoints. A coordinator faces every worker on the network, so no
// body may panic it or earn a 5xx: malformed input is a 400, a stale or
// unknown lease is a 200 the worker acts on. One lease is live for the
// whole run (job-0001, worker w1, token tok), so bodies that name it
// reach the checkpoint-landing and completion paths too. The heartbeat
// interval is a millisecond, so a claim that waits for a job returns
// empty at once instead of stalling the fuzz loop.
func FuzzFleetWire(f *testing.F) {
	sched, err := service.NewScheduler(service.Config{Dir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	c := NewCoordinator(CoordinatorConfig{Sched: sched, LeaseTTL: time.Hour, HeartbeatEvery: time.Millisecond})
	live := &lease{
		jobID:   "job-0001",
		worker:  "w1",
		token:   "tok",
		expires: time.Now().Add(time.Hour),
		done:    make(chan remoteDone, 1),
	}
	c.leases[live.jobID] = live
	mux := http.NewServeMux()
	c.Mount(mux)

	f.Add(uint8(0), []byte(`{"version":2,"worker":"w1"}`))
	f.Add(uint8(1), []byte(`{"version":2,"worker":"w1","job":"job-0001","lease":"tok","executions":40,"checkpoint":"e30=","checkpoint_sum":"bad"}`))
	f.Add(uint8(2), []byte(`{"version":2,"worker":"w1","job":"job-0001","lease":"tok","error":"boom","stats":{"received":1}}`))
	f.Add(uint8(1), []byte(`{"version":1}`))
	f.Add(uint8(2), []byte(`not json`))
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := fleetRoutes[int(route)%len(fleetRoutes)]
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
		// Drain a completion so the next one reaches the lease again.
		select {
		case <-live.done:
		default:
		}
	})
}
