package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/triage"
)

// CoordinatorConfig tunes the fleet coordinator.
type CoordinatorConfig struct {
	// Sched is the scheduler whose queued jobs this coordinator shards.
	Sched *service.Scheduler
	// LeaseTTL bounds how long an assignment survives without a
	// heartbeat before it is forfeited and requeued (default 15s).
	LeaseTTL time.Duration
	// HeartbeatEvery is the renewal cadence handed to workers (default
	// LeaseTTL/3). It also bounds how long a claim waits for a job and
	// how long a job waits for a claim before it runs locally.
	HeartbeatEvery time.Duration
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

// workerState is the coordinator's view of one worker that has claimed.
type workerState struct {
	id         string
	lastSeen   time.Time
	executions int64 // cumulative executions reported across assignments
}

// claim is an idle worker's claim, parked until RunRemote takes it.
type claim struct {
	worker string
	asg    chan Assignment // buffered: RunRemote never blocks handing over
}

// Coordinator shards the scheduler's queued jobs across the workers
// that claim them. It implements service.RemoteRunner; install it with
// Scheduler.SetRemote and mount its handlers next to the daemon API.
type Coordinator struct {
	cfg CoordinatorConfig
	// claims is unbuffered: a claim handler's send parks the claim until
	// RunRemote receives it.
	claims chan claim

	mu      sync.Mutex
	workers map[string]*workerState
	leases  map[string]*lease // by job ID
	seq     int

	metrics coordMetrics
}

// coordMetrics are the coordinator's counters, registered on the
// scheduler's registry after the daemon's own series.
type coordMetrics struct {
	claims, leasesGranted, leasesExpired, heartbeats *service.Counter
	handoffs, handoffRejects                         *service.Counter
	outcomes                                         *service.CounterVec // remote job outcomes
}

// NewCoordinator builds a coordinator over the scheduler.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = cfg.LeaseTTL / 3
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Coordinator{
		cfg:     cfg,
		claims:  make(chan claim),
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
	m.claims = r.Counter("mopfuzzd_fleet_claims_total", "Worker claims for work (each doubles as a liveness ping).")
	m.leasesGranted = r.Counter("mopfuzzd_fleet_leases_granted_total", "Assignments accepted by workers.")
	m.leasesExpired = r.Counter("mopfuzzd_fleet_leases_expired_total", "Leases forfeited to missing heartbeats.")
	m.heartbeats = r.Counter("mopfuzzd_fleet_heartbeats_total", "Lease renewals received.")
	m.handoffs = r.Counter("mopfuzzd_fleet_checkpoint_handoffs_total", "Checkpoint uploads verified and landed.")
	m.handoffRejects = r.Counter("mopfuzzd_fleet_checkpoint_rejects_total", "Checkpoint uploads rejected (checksum or decode failure).")
	m.outcomes = r.CounterVec("mopfuzzd_fleet_remote_jobs_total", "Remote assignment outcomes.", "outcome",
		"declined", "done", "failed", "interrupted", "requeued")
	r.Ints("mopfuzzd_fleet_worker_executions_total", "Executions reported per worker.", "counter", "worker",
		func() []service.Sample { return execs })
}

// Mount registers the coordinator's fleet endpoints on the daemon mux.
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /fleet/claim", c.handleClaim)
	mux.HandleFunc("POST /fleet/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /fleet/complete", c.handleComplete)
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// ---- HTTP handlers (worker → coordinator) ----

// handleClaim parks an idle worker's claim for up to one heartbeat
// interval, answering with the assignment RunRemote hands it or with no
// work. A worker's first claim is answered at once: it carries the
// timing contract the worker needs to set its next claim's deadline.
func (c *Coordinator) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req ClaimRequest
	if err := decodeBody(w, r, &req); err != nil {
		return
	}
	if err := CheckVersion(req.Version); err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Worker == "" {
		httpErr(w, http.StatusBadRequest, errors.New("fleet: claim needs a worker"))
		return
	}
	c.mu.Lock()
	ws := c.workers[req.Worker]
	first := ws == nil
	if first {
		ws = &workerState{id: req.Worker}
		c.workers[req.Worker] = ws
		c.logf("fleet: worker %s joined", req.Worker)
	}
	ws.lastSeen = c.cfg.Now()
	c.mu.Unlock()
	c.metrics.claims.Inc()
	resp := ClaimResponse{
		Version:          WireVersion,
		HeartbeatEveryMS: c.cfg.HeartbeatEvery.Milliseconds(),
		LeaseTTLMS:       c.cfg.LeaseTTL.Milliseconds(),
	}
	if !first {
		cl := claim{worker: req.Worker, asg: make(chan Assignment, 1)}
		timer := time.NewTimer(c.cfg.HeartbeatEvery)
		defer timer.Stop()
		select {
		case c.claims <- cl:
			asg := <-cl.asg
			resp.Assignment = &asg
		case <-timer.C:
		case <-r.Context().Done():
			// The worker hung up (killed or draining): nothing to answer.
			return
		}
	}
	writeWire(w, resp)
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
// failure rejects the upload and keeps the previously landed log —
// resume correctness beats freshness.
func (c *Coordinator) landCheckpoint(jobID string, data []byte, sum string) {
	if Checksum(data) != sum {
		c.metrics.handoffRejects.Inc()
		c.logf("fleet: job %s: checkpoint upload checksum mismatch, keeping previous checkpoint", jobID)
		return
	}
	if _, err := harness.DecodeCheckpoint(data); err != nil {
		c.metrics.handoffRejects.Inc()
		c.logf("fleet: job %s: checkpoint upload undecodable, keeping previous checkpoint: %v", jobID, err)
		return
	}
	if err := harness.WriteFileAtomic(c.cfg.Sched.Store().CheckpointPath(jobID), data); err != nil {
		c.logf("fleet: job %s: write checkpoint handoff: %v", jobID, err)
		return
	}
	c.metrics.handoffs.Inc()
}

// ---- handing jobs to claims ----

// RunRemote implements service.RemoteRunner: hand the job, with the
// scheduler's campaign knobs so the remote run mirrors a local one, to
// the first claim parked within one heartbeat interval, then watch the
// lease until the worker settles it, the lease expires, or ctx is
// cancelled. With no claim in that interval it declines, and the
// scheduler runs the job locally.
func (c *Coordinator) RunRemote(ctx context.Context, j *service.Job) service.RemoteOutcome {
	id := j.ID()
	asg := Assignment{
		Version:          WireVersion,
		Job:              id,
		Spec:             j.Spec(),
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

	timer := time.NewTimer(c.cfg.HeartbeatEvery)
	defer timer.Stop()
	select {
	case cl := <-c.claims:
		// The lease is registered before the claim answers, so the
		// worker's first heartbeat cannot race it.
		l := c.grant(id, cl.worker)
		asg.Lease = l.token
		cl.asg <- asg
		c.cfg.Sched.NoteRemoteStart(j, cl.worker)
		return c.watch(ctx, l)
	case <-timer.C:
	case <-ctx.Done():
	}
	c.metrics.outcomes.Inc("declined")
	return service.RemoteOutcome{Declined: true}
}

// grant registers a fresh lease on the job for the worker.
func (c *Coordinator) grant(jobID, worker string) *lease {
	c.mu.Lock()
	c.seq++
	l := &lease{
		jobID:   jobID,
		worker:  worker,
		token:   fmt.Sprintf("%s.%s.%d", jobID, worker, c.seq),
		expires: c.cfg.Now().Add(c.cfg.LeaseTTL),
		done:    make(chan remoteDone, 1),
	}
	c.leases[jobID] = l
	c.mu.Unlock()
	c.metrics.leasesGranted.Inc()
	c.logf("fleet: job %s leased to %s (ttl %s)", jobID, worker, c.cfg.LeaseTTL)
	return l
}

// watch follows one granted lease to its end.
func (c *Coordinator) watch(ctx context.Context, l *lease) service.RemoteOutcome {
	id, worker := l.jobID, l.worker
	for {
		l.mu.Lock()
		expires := l.expires
		l.mu.Unlock()
		wait := expires.Sub(c.cfg.Now())
		if wait <= 0 {
			// Lease expired: the worker is dead, hung, or partitioned. Its
			// last checkpoint handoff is already on disk; fold its partial
			// findings in and put the job back on the queue.
			c.dropLease(id, l)
			c.metrics.leasesExpired.Inc()
			c.mergeTriage(id, l)
			c.metrics.outcomes.Inc("requeued")
			c.logf("fleet: job %s lease on %s expired, requeueing", id, worker)
			return service.RemoteOutcome{Requeue: true, Worker: worker}
		}
		if poll := c.cfg.LeaseTTL / 4; wait > poll && poll > 0 {
			wait = poll
		}
		timer := time.NewTimer(wait)
		select {
		case d := <-l.done:
			timer.Stop()
			c.dropLease(id, l)
			c.mergeTriage(id, l)
			out := service.RemoteOutcome{
				Interrupted: d.interrupted,
				Summary:     d.summary,
				Stats:       d.stats,
				Err:         d.err,
				Worker:      worker,
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
				c.dropLease(id, l)
				c.mergeTriage(id, l)
				c.metrics.outcomes.Inc("interrupted")
				return service.RemoteOutcome{
					Interrupted: d.interrupted,
					Summary:     d.summary,
					Stats:       d.stats,
					Err:         d.err,
					Worker:      worker,
				}
			case <-grace.C:
				// Worker unreachable during shutdown; its last handoff is
				// the resume point.
				c.dropLease(id, l)
				c.mergeTriage(id, l)
				c.metrics.outcomes.Inc("interrupted")
				c.logf("fleet: job %s: worker %s did not settle cancel in time", id, worker)
				return service.RemoteOutcome{Interrupted: true, Worker: worker}
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

// ---- shared HTTP plumbing ----

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
