package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/triage"
)

// errWorkerBusy marks a 409 from a worker: not a fault, just try the
// next candidate (and never retry this one — it will stay busy).
var errWorkerBusy = errors.New("fleet: worker busy")

// CoordinatorConfig tunes the fleet coordinator.
type CoordinatorConfig struct {
	// Sched is the scheduler whose queued jobs this coordinator shards.
	Sched *service.Scheduler
	// LeaseTTL bounds how long an assignment survives without a
	// heartbeat before it is forfeited and requeued (default 15s).
	LeaseTTL time.Duration
	// HeartbeatEvery is the renewal cadence handed to workers (default
	// LeaseTTL/3).
	HeartbeatEvery time.Duration
	// DispatchAttempts bounds tries per worker per assignment RPC
	// (default 3).
	DispatchAttempts int
	// Backoff schedules dispatch retries. The zero value gets a jittered
	// default (base 100ms, max 2s, jitter 0.5) — fleet RPCs want
	// decorrelation, unlike campaign-internal retries.
	Backoff harness.Backoff
	// BreakerThreshold / BreakerCooldown tune the per-worker circuit
	// breaker (defaults: 3 failures, 30s cooldown).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Client issues worker RPCs; nil gets a 10s-timeout default. Tests
	// and the chaos harness inject transports here.
	Client *http.Client
	// Now is the clock seam (nil = wall clock).
	Now func() time.Time
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

// remoteDone is a settled assignment, handed from the complete handler
// to the RunRemote watch loop.
type remoteDone struct {
	interrupted bool
	summary     *service.ResultSummary
	stats       triage.Stats
	err         error
}

// lease is one live assignment grant.
type lease struct {
	jobID  string
	worker string
	token  string

	mu          sync.Mutex
	expires     time.Time
	cancelAsked bool
	triageLog   []byte // latest cumulative upload
	lastExec    int    // last absolute execution count reported
	done        chan remoteDone
}

// workerState is the coordinator's view of one enrolled worker.
type workerState struct {
	id         string
	addr       string
	lastSeen   time.Time
	busy       string // job ID currently assigned, "" when idle
	breaker    *harness.Breaker
	executions int64 // cumulative executions reported across assignments
}

// Coordinator shards the scheduler's queued jobs across enrolled
// workers. It implements service.RemoteRunner; install it with
// Scheduler.SetRemote and mount its handlers next to the daemon API.
type Coordinator struct {
	cfg    CoordinatorConfig
	client *http.Client

	mu      sync.Mutex
	workers map[string]*workerState
	leases  map[string]*lease // by job ID
	seq     int

	metrics coordMetrics
}

// coordMetrics are the coordinator's counters, registered on the
// scheduler's registry after the daemon's own series.
type coordMetrics struct {
	enrolls, leasesGranted, leasesExpired, heartbeats *service.Counter
	handoffs, handoffRejects, dispatchRetries         *service.Counter
	dispatchFailures, breakerOpens                    *service.Counter
	outcomes                                          *service.CounterVec // remote job outcomes
}

// NewCoordinator builds a coordinator over the scheduler.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = cfg.LeaseTTL / 3
	}
	if cfg.DispatchAttempts <= 0 {
		cfg.DispatchAttempts = 3
	}
	if cfg.Backoff == (harness.Backoff{}) {
		cfg.Backoff = harness.Backoff{Base: 100 * time.Millisecond, Max: 2 * time.Second, Jitter: 0.5}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	c := &Coordinator{
		cfg:     cfg,
		client:  client,
		workers: map[string]*workerState{},
		leases:  map[string]*lease{},
	}
	c.registerMetrics(cfg.Sched.Metrics())
	return c
}

// registerMetrics registers the coordinator's series, so one /metrics
// scrape covers the whole fleet.
func (c *Coordinator) registerMetrics(r *service.Registry) {
	var live, dead, leases int
	var execs []service.Sample
	r.OnScrape(func() {
		now := c.cfg.Now()
		live, dead, execs = 0, 0, nil
		c.mu.Lock()
		for _, ws := range c.workers {
			if now.Sub(ws.lastSeen) > c.cfg.LeaseTTL {
				dead++
			} else {
				live++
			}
			execs = append(execs, service.Sample{Label: ws.id, Value: ws.executions})
		}
		leases = len(c.leases)
		c.mu.Unlock()
		sort.Slice(execs, func(i, k int) bool { return execs[i].Label < execs[k].Label })
	})
	r.Ints("mopfuzzd_fleet_workers", "Enrolled workers by liveness.", "gauge", "state", func() []service.Sample {
		return []service.Sample{{Label: "live", Value: int64(live)}, {Label: "dead", Value: int64(dead)}}
	})
	r.Int("mopfuzzd_fleet_leases", "Assignments currently leased to workers.", "gauge",
		func() int64 { return int64(leases) })
	m := &c.metrics
	m.enrolls = r.Counter("mopfuzzd_fleet_enrolls_total", "Worker enrollments (including liveness re-enrolls).")
	m.leasesGranted = r.Counter("mopfuzzd_fleet_leases_granted_total", "Assignments accepted by workers.")
	m.leasesExpired = r.Counter("mopfuzzd_fleet_leases_expired_total", "Leases forfeited to missing heartbeats.")
	m.heartbeats = r.Counter("mopfuzzd_fleet_heartbeats_total", "Lease renewals received.")
	m.handoffs = r.Counter("mopfuzzd_fleet_checkpoint_handoffs_total", "Checkpoint uploads verified and landed.")
	m.handoffRejects = r.Counter("mopfuzzd_fleet_checkpoint_rejects_total", "Checkpoint uploads rejected (checksum or decode failure).")
	m.dispatchRetries = r.Counter("mopfuzzd_fleet_dispatch_retries_total", "Worker RPC attempts retried after transient failures.")
	m.dispatchFailures = r.Counter("mopfuzzd_fleet_dispatch_failures_total", "Assignment dispatches that exhausted retries.")
	m.breakerOpens = r.Counter("mopfuzzd_fleet_breaker_open_total", "Per-worker circuit breakers tripped open.")
	m.outcomes = r.CounterVec("mopfuzzd_fleet_remote_jobs_total", "Remote assignment outcomes.", "outcome",
		"declined", "done", "failed", "interrupted", "requeued")
	r.Ints("mopfuzzd_fleet_worker_executions_total", "Executions reported per worker.", "counter", "worker",
		func() []service.Sample { return execs })
}

// Mount registers the coordinator's fleet endpoints on the daemon mux.
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /fleet/enroll", c.handleEnroll)
	mux.HandleFunc("POST /fleet/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /fleet/complete", c.handleComplete)
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// ---- HTTP handlers (worker → coordinator) ----

func (c *Coordinator) handleEnroll(w http.ResponseWriter, r *http.Request) {
	var req EnrollRequest
	if err := decodeBody(w, r, &req); err != nil {
		return
	}
	if err := CheckVersion(req.Version); err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Worker == "" || req.Addr == "" {
		httpErr(w, http.StatusBadRequest, errors.New("fleet: enroll needs worker and addr"))
		return
	}
	c.mu.Lock()
	ws := c.workers[req.Worker]
	if ws == nil {
		ws = &workerState{
			id: req.Worker,
			breaker: &harness.Breaker{
				Threshold: c.cfg.BreakerThreshold,
				Cooldown:  c.cfg.BreakerCooldown,
				Now:       c.cfg.Now,
				OnOpen:    c.metrics.breakerOpens.Inc,
			},
		}
		c.workers[req.Worker] = ws
		c.logf("fleet: worker %s enrolled at %s", req.Worker, req.Addr)
	}
	ws.addr = req.Addr
	ws.lastSeen = c.cfg.Now()
	c.mu.Unlock()
	c.metrics.enrolls.Inc()
	writeWire(w, EnrollResponse{
		Version:          WireVersion,
		HeartbeatEveryMS: c.cfg.HeartbeatEvery.Milliseconds(),
		LeaseTTLMS:       c.cfg.LeaseTTL.Milliseconds(),
	})
}

// checkReport vets a heartbeat or completion: its wire version, and an
// execution count that never goes below zero (a negative one would
// drive the per-worker counter backwards).
func checkReport(version, executions int) error {
	if executions < 0 {
		return fmt.Errorf("fleet: negative executions %d", executions)
	}
	return CheckVersion(version)
}

// noteProgress keeps a live lease's latest triage log and credits its
// worker with the executions reported since the last report. Callers
// hold l.mu.
func (c *Coordinator) noteProgress(l *lease, worker string, executions int, triageLog []byte) {
	if len(triageLog) > 0 {
		l.triageLog = triageLog
	}
	if d := executions - l.lastExec; d > 0 {
		l.lastExec = executions
		c.mu.Lock()
		if ws := c.workers[worker]; ws != nil {
			ws.executions += int64(d)
		}
		c.mu.Unlock()
	}
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb Heartbeat
	if err := decodeBody(w, r, &hb); err != nil {
		return
	}
	if err := checkReport(hb.Version, hb.Executions); err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	c.metrics.heartbeats.Inc()
	c.mu.Lock()
	if ws := c.workers[hb.Worker]; ws != nil {
		ws.lastSeen = c.cfg.Now()
	}
	l := c.leases[hb.Job]
	c.mu.Unlock()
	if l == nil || l.token != hb.Lease || l.worker != hb.Worker {
		// Expired and moved on: the sender no longer owns this job.
		writeWire(w, HeartbeatResponse{Version: WireVersion, Unknown: true})
		return
	}
	l.mu.Lock()
	l.expires = c.cfg.Now().Add(c.cfg.LeaseTTL)
	cancel := l.cancelAsked
	c.noteProgress(l, hb.Worker, hb.Executions, hb.TriageLog)
	l.mu.Unlock()
	if len(hb.Checkpoint) > 0 {
		c.landCheckpoint(hb.Job, hb.Checkpoint, hb.CheckpointSum)
	}
	writeWire(w, HeartbeatResponse{Version: WireVersion, Cancel: cancel})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := decodeBody(w, r, &req); err != nil {
		return
	}
	if err := checkReport(req.Version, req.Executions); err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	c.mu.Lock()
	l := c.leases[req.Job]
	c.mu.Unlock()
	if l == nil || l.token != req.Lease || l.worker != req.Worker {
		// The lease expired and the job was requeued; this straggler's
		// work is superseded. Its checkpoint must NOT land — a successor
		// may already be running from the earlier one.
		writeWire(w, CompleteResponse{Version: WireVersion, Accepted: false})
		return
	}
	if len(req.Checkpoint) > 0 {
		c.landCheckpoint(req.Job, req.Checkpoint, req.CheckpointSum)
	}
	l.mu.Lock()
	c.noteProgress(l, req.Worker, req.Executions, req.TriageLog)
	l.mu.Unlock()
	d := remoteDone{interrupted: req.Interrupted, summary: req.Summary, stats: req.Stats}
	if req.Error != "" {
		d.err = errors.New(req.Error)
	}
	select {
	case l.done <- d:
	default: // watch loop already gone; nothing to settle
	}
	writeWire(w, CompleteResponse{Version: WireVersion, Accepted: true})
}

// landCheckpoint verifies and atomically installs an uploaded campaign
// checkpoint into the job's state directory. A checksum or decode
// failure rejects the upload and keeps the previously landed snapshot —
// resume correctness beats freshness.
func (c *Coordinator) landCheckpoint(jobID string, data []byte, sum string) {
	if Checksum(data) != sum {
		c.metrics.handoffRejects.Inc()
		c.logf("fleet: job %s: checkpoint upload checksum mismatch, keeping previous snapshot", jobID)
		return
	}
	if _, err := harness.DecodeCheckpoint(data); err != nil {
		c.metrics.handoffRejects.Inc()
		c.logf("fleet: job %s: checkpoint upload undecodable, keeping previous snapshot: %v", jobID, err)
		return
	}
	path := c.cfg.Sched.Store().CheckpointPath(jobID)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		c.logf("fleet: job %s: write checkpoint handoff: %v", jobID, err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		c.logf("fleet: job %s: install checkpoint handoff: %v", jobID, err)
		return
	}
	c.metrics.handoffs.Inc()
}

// ---- dispatch (coordinator → worker) ----

// RunRemote implements service.RemoteRunner: assign the job to a live
// worker, with the scheduler's campaign knobs so the remote run mirrors
// a local one, then watch the lease until the worker settles it, the
// lease expires, or ctx is cancelled.
func (c *Coordinator) RunRemote(ctx context.Context, j *service.Job) service.RemoteOutcome {
	id := j.ID()
	asg := Assignment{
		Version:          WireVersion,
		Job:              id,
		Spec:             j.Spec(),
		CheckpointEvery:  c.cfg.Sched.CheckpointEvery(),
		ExecTimeoutMS:    c.cfg.Sched.ExecTimeout().Milliseconds(),
		HeartbeatEveryMS: c.cfg.HeartbeatEvery.Milliseconds(),
	}
	store := c.cfg.Sched.Store()
	if store.HasCheckpoint(id) {
		data, err := os.ReadFile(store.CheckpointPath(id))
		if err != nil {
			return service.RemoteOutcome{Err: fmt.Errorf("fleet: read checkpoint for %s: %w", id, err)}
		}
		asg.Checkpoint = data
		asg.CheckpointSum = Checksum(data)
	}

	ws, l := c.assign(ctx, asg)
	if ws == nil {
		c.metrics.outcomes.Inc("declined")
		return service.RemoteOutcome{Declined: true}
	}
	c.cfg.Sched.NoteRemoteStart(j, ws.id)
	return c.watch(ctx, j, ws, l)
}

// assign offers the assignment to each dispatchable worker in turn and
// returns the first acceptance. The lease is registered before the RPC
// so an eager worker's first heartbeat cannot race it.
func (c *Coordinator) assign(ctx context.Context, asg Assignment) (*workerState, *lease) {
	for _, ws := range c.dispatchable() {
		c.mu.Lock()
		c.seq++
		token := fmt.Sprintf("%s.%s.%d", asg.Job, ws.id, c.seq)
		l := &lease{
			jobID:   asg.Job,
			worker:  ws.id,
			token:   token,
			expires: c.cfg.Now().Add(c.cfg.LeaseTTL),
			done:    make(chan remoteDone, 1),
		}
		c.leases[asg.Job] = l
		ws.busy = asg.Job
		c.mu.Unlock()

		asg.Lease = token
		var resp AssignResponse
		err := c.postWire(ctx, ws, ws.addr+"/work", asg, &resp)
		accepted := err == nil && resp.Accepted
		if !accepted {
			c.dropLease(asg.Job, l)
			c.mu.Lock()
			ws.busy = ""
			c.mu.Unlock()
			switch {
			case errors.Is(err, errWorkerBusy):
				c.logf("fleet: worker %s busy, trying next", ws.id)
			case err != nil:
				c.metrics.dispatchFailures.Inc()
				c.logf("fleet: dispatch %s to %s failed: %v", asg.Job, ws.id, err)
			default:
				c.logf("fleet: worker %s rejected %s: %s", ws.id, asg.Job, resp.Reason)
			}
			continue
		}
		c.metrics.leasesGranted.Inc()
		c.logf("fleet: job %s leased to %s (ttl %s)", asg.Job, ws.id, c.cfg.LeaseTTL)
		return ws, l
	}
	return nil, nil
}

// watch follows one granted lease to its end.
func (c *Coordinator) watch(ctx context.Context, j *service.Job, ws *workerState, l *lease) service.RemoteOutcome {
	id := l.jobID
	release := func() {
		c.dropLease(id, l)
		c.mu.Lock()
		if ws.busy == id {
			ws.busy = ""
		}
		c.mu.Unlock()
	}
	for {
		l.mu.Lock()
		expires := l.expires
		l.mu.Unlock()
		wait := expires.Sub(c.cfg.Now())
		if wait <= 0 {
			// Lease expired: the worker is dead, hung, or partitioned. Its
			// last checkpoint handoff is already on disk; fold its partial
			// findings in and put the job back on the queue.
			release()
			ws.breaker.Failure()
			c.metrics.leasesExpired.Inc()
			c.mergeTriage(id, l)
			c.metrics.outcomes.Inc("requeued")
			c.logf("fleet: job %s lease on %s expired, requeueing", id, ws.id)
			return service.RemoteOutcome{Requeue: true, Worker: ws.id}
		}
		if poll := c.cfg.LeaseTTL / 4; wait > poll && poll > 0 {
			wait = poll
		}
		timer := time.NewTimer(wait)
		select {
		case d := <-l.done:
			timer.Stop()
			release()
			c.mergeTriage(id, l)
			out := service.RemoteOutcome{
				Interrupted: d.interrupted,
				Summary:     d.summary,
				Stats:       d.stats,
				Err:         d.err,
				Worker:      ws.id,
			}
			switch {
			case d.err != nil:
				c.metrics.outcomes.Inc("failed")
			case d.interrupted:
				c.metrics.outcomes.Inc("interrupted")
			default:
				c.metrics.outcomes.Inc("done")
			}
			return out
		case <-ctx.Done():
			timer.Stop()
			// Cancel or drain: flag the lease so the next heartbeat tells
			// the worker to stop, then give it one TTL to settle.
			l.mu.Lock()
			l.cancelAsked = true
			l.mu.Unlock()
			grace := time.NewTimer(c.cfg.LeaseTTL)
			select {
			case d := <-l.done:
				grace.Stop()
				release()
				c.mergeTriage(id, l)
				c.metrics.outcomes.Inc("interrupted")
				return service.RemoteOutcome{
					Interrupted: d.interrupted,
					Summary:     d.summary,
					Stats:       d.stats,
					Err:         d.err,
					Worker:      ws.id,
				}
			case <-grace.C:
				// Worker unreachable during shutdown; its last handoff is
				// the resume point.
				release()
				c.mergeTriage(id, l)
				c.metrics.outcomes.Inc("interrupted")
				c.logf("fleet: job %s: worker %s did not settle cancel in time", id, ws.id)
				return service.RemoteOutcome{Interrupted: true, Worker: ws.id}
			}
		case <-timer.C:
			// Re-check expiry.
		}
	}
}

// mergeTriage folds the lease's last uploaded triage log into the
// job's store. Signature dedup makes overlapping logs — a dead
// worker's partial upload plus its successor's full one — idempotent.
func (c *Coordinator) mergeTriage(id string, l *lease) {
	l.mu.Lock()
	log := l.triageLog
	l.triageLog = nil
	l.mu.Unlock()
	if len(log) == 0 {
		return
	}
	added, err := c.cfg.Sched.MergeTriage(id, log)
	if err != nil {
		c.logf("fleet: job %s: merge uploaded triage log: %v", id, err)
		return
	}
	if added > 0 {
		c.logf("fleet: job %s: merged %d novel signature(s) from worker upload", id, added)
	}
}

func (c *Coordinator) dropLease(id string, l *lease) {
	c.mu.Lock()
	if c.leases[id] == l {
		delete(c.leases, id)
	}
	c.mu.Unlock()
}

// dispatchable returns live, idle workers whose breakers admit a call,
// in ID order (deterministic candidate order).
func (c *Coordinator) dispatchable() []*workerState {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*workerState
	for _, ws := range c.workers {
		if now.Sub(ws.lastSeen) > c.cfg.LeaseTTL {
			continue // not heard from: presumed dead
		}
		if ws.busy != "" {
			continue
		}
		if !ws.breaker.Allow() {
			continue
		}
		out = append(out, ws)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].id < out[k].id })
	return out
}

// postWire POSTs one fleet message with harness retry and the worker's
// circuit breaker accounting.
func (c *Coordinator) postWire(ctx context.Context, ws *workerState, url string, in, out any) error {
	err := harness.Retry(ctx, harness.RetryConfig{
		Attempts: c.cfg.DispatchAttempts,
		Backoff:  c.cfg.Backoff,
		IsTransient: func(err error) bool {
			return !errors.Is(err, errWorkerBusy)
		},
		OnRetry: func(int, error) { c.metrics.dispatchRetries.Inc() },
	}, func(ctx context.Context) error {
		return postJSON(ctx, c.client, url, in, out)
	})
	if err == nil {
		ws.breaker.Success()
	} else if !errors.Is(err, errWorkerBusy) && !errors.Is(err, context.Canceled) {
		ws.breaker.Failure()
	}
	return err
}

// ---- shared HTTP plumbing ----

// postJSON POSTs in as JSON and decodes the response into out. A 409
// maps to errWorkerBusy; other non-2xx statuses are transient errors.
func postJSON(ctx context.Context, client *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		return errWorkerBusy
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("fleet: %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeBody decodes a bounded JSON request body, writing the error
// response itself on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 32<<20))
	if err := dec.Decode(v); err != nil {
		httpErr(w, http.StatusBadRequest, fmt.Errorf("fleet: decode request: %v", err))
		return err
	}
	return nil
}

func writeWire(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(v)
}

func httpErr(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
