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
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/triage"
)

// WorkerConfig tunes a fleet worker daemon.
type WorkerConfig struct {
	// ID uniquely names this worker in the fleet.
	ID string
	// Coordinator is the coordinator daemon's base URL.
	Coordinator string
	// Dir is the worker's scratch directory: per-assignment checkpoint,
	// triage store, and quarantine live under it, in a job store's
	// layout.
	Dir string
	// Exec is the execution backend, set from the same flags as the
	// standalone daemon's. A job spec that pins a backend overrides only
	// its name.
	Exec exec.Backend
	// Backoff schedules RPC retries (zero value → jittered default).
	Backoff harness.Backoff
	// Client issues coordinator RPCs (nil = a client without a timeout:
	// each RPC attempt is bounded by one heartbeat interval plus
	// rpcSlack, so a claim can wait out its interval at the coordinator).
	Client *http.Client
	// Now is the clock seam (nil = wall clock).
	Now func() time.Time
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
	// OnTask, when set, observes (jobID, tasks done) after every
	// campaign task — the chaos/test seam, mirroring service.Config.
	OnTask func(jobID string, done int)
}

// rpcSlack is how much longer than one heartbeat interval a worker
// waits for any coordinator RPC, a parked claim included.
const rpcSlack = 10 * time.Second

// rpcAttempts bounds tries per coordinator RPC.
const rpcAttempts = 3

// Worker is a fleet worker daemon: it claims one assignment at a time
// from the coordinator, runs the campaign with per-task heartbeat
// handoffs, and settles it with a completion RPC.
type Worker struct {
	cfg    WorkerConfig
	client *http.Client
	// store lays out each assignment's scratch state (checkpoint, score
	// cache, triage store, quarantine) the way the daemon lays out a job.
	store *service.JobStore

	mu        sync.Mutex
	started   bool
	killed    bool
	stop      context.CancelFunc // ends the claim loop and any run (Kill)
	hbEvery   time.Duration      // the coordinator's heartbeat interval
	cancelRun context.CancelFunc
	abandoned bool
	lastExecs int // latest campaign execution count, for heartbeats

	hbMu sync.Mutex // serializes heartbeat sends (per-task vs ticker)

	wg sync.WaitGroup
}

// NewWorker builds a worker daemon.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.ID == "" || cfg.Coordinator == "" || cfg.Dir == "" {
		return nil, errors.New("fleet: worker needs ID, Coordinator, and Dir")
	}
	if err := exec.CheckBackend(cfg.Exec.Name); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if cfg.Backoff == (harness.Backoff{}) {
		cfg.Backoff = harness.Backoff{Base: 100 * time.Millisecond, Max: 2 * time.Second, Jitter: 0.5}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	store, err := service.OpenJobStore(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("fleet: worker scratch dir: %w", err)
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	return &Worker{cfg: cfg, client: client, store: store, hbEvery: 5 * time.Second}, nil
}

// Mount registers the worker's endpoints on its mux.
func (w *Worker) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /healthz", w.handleHealthz)
}

// Start launches the claim loop. Cancelling ctx drains the worker: the
// running campaign (if any) checkpoints, completes as interrupted, and
// Wait unblocks.
func (w *Worker) Start(ctx context.Context) {
	w.mu.Lock()
	if w.started {
		w.mu.Unlock()
		return
	}
	w.started = true
	ctx, w.stop = context.WithCancel(ctx)
	w.mu.Unlock()
	w.wg.Add(1)
	go w.claimLoop(ctx)
}

// Wait blocks until the claim loop and any running assignment have
// finished.
func (w *Worker) Wait() { w.wg.Wait() }

// Kill simulates abrupt worker death for chaos tests: the campaign is
// aborted, no completion or further heartbeat is sent, and the parked
// claim is withdrawn with no claim after it. From the coordinator's
// point of view the worker simply goes silent — exactly like a SIGKILL
// — and a held lease must expire.
func (w *Worker) Kill() {
	w.mu.Lock()
	w.killed = true
	stop := w.stop
	w.mu.Unlock()
	if stop != nil {
		stop()
	}
	w.logf("worker %s: killed", w.cfg.ID)
}

func (w *Worker) isKilled() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.killed
}

func (w *Worker) heartbeatEvery() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.hbEvery
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// claimLoop claims work until ctx ends. An empty answer is followed at
// once by the next claim, so an idle worker keeps one claim parked at
// the coordinator, and its claims are its liveness ping; a failed claim
// waits one heartbeat interval first. An assignment runs to completion
// before the next claim.
func (w *Worker) claimLoop(ctx context.Context) {
	defer w.wg.Done()
	for ctx.Err() == nil {
		var resp ClaimResponse
		if err := w.post(ctx, "/fleet/claim", ClaimRequest{Version: WireVersion, Worker: w.cfg.ID}, &resp); err != nil {
			if ctx.Err() == nil {
				w.logf("worker %s: claim: %v", w.cfg.ID, err)
			}
			t := time.NewTimer(w.heartbeatEvery())
			select {
			case <-ctx.Done():
				t.Stop()
			case <-t.C:
			}
			continue
		}
		if hb := time.Duration(resp.HeartbeatEveryMS) * time.Millisecond; hb > 0 {
			w.mu.Lock()
			w.hbEvery = hb
			w.mu.Unlock()
		}
		if resp.Assignment != nil {
			w.run(ctx, *resp.Assignment)
		}
	}
}

func (w *Worker) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	if w.isKilled() {
		httpErr(rw, http.StatusServiceUnavailable, errors.New("killed"))
		return
	}
	writeWire(rw, map[string]any{"status": "ok", "worker": w.cfg.ID})
}

// check vets an assignment before it is staged: its wire version, its
// checkpoint's checksum, and its spec, which it normalizes in place as
// the coordinator's local runner would.
func (asg *Assignment) check() error {
	if err := CheckVersion(asg.Version); err != nil {
		return err
	}
	if len(asg.Checkpoint) > 0 && Checksum(asg.Checkpoint) != asg.CheckpointSum {
		return errors.New("checkpoint checksum mismatch")
	}
	if err := asg.Spec.Validate(); err != nil {
		return fmt.Errorf("spec: %v", err)
	}
	return nil
}

// stageAssignment prepares the scratch directory, landing the resume
// checkpoint when the assignment carries one. Prior scratch state for
// the same job is discarded — the coordinator's copy is authoritative.
func (w *Worker) stageAssignment(asg Assignment) error {
	dir := w.store.JobDir(asg.Job)
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("reset scratch: %v", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("scratch: %v", err)
	}
	if len(asg.Checkpoint) > 0 {
		if err := os.WriteFile(w.store.CheckpointPath(asg.Job), asg.Checkpoint, 0o644); err != nil {
			return fmt.Errorf("stage checkpoint: %v", err)
		}
	}
	return nil
}

// run executes one assignment end to end and settles it with a
// completion. An assignment the worker cannot stage is settled as
// failed: left to its lease, it would requeue and fail again.
func (w *Worker) run(ctx context.Context, asg Assignment) {
	id := asg.Job
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.mu.Lock()
	w.cancelRun = cancel
	w.abandoned = false
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.cancelRun = nil
		w.mu.Unlock()
	}()

	req := CompleteRequest{
		Version: WireVersion,
		Worker:  w.cfg.ID,
		Job:     id,
		Lease:   asg.Lease,
	}
	err := asg.check()
	if err == nil {
		err = w.stageAssignment(asg)
	}
	if err != nil {
		req.Error = fmt.Sprintf("worker %s cannot run the assignment: %v", w.cfg.ID, err)
		w.logf("worker %s: %s: %s", w.cfg.ID, id, req.Error)
	} else {
		w.logf("worker %s: claimed %s (lease %s)", w.cfg.ID, id, asg.Lease)
		res, stats, runErr := w.campaign(jctx, asg)
		if w.isKilled() {
			return // dead workers tell no tales: the lease must expire
		}
		w.mu.Lock()
		abandoned := w.abandoned
		w.mu.Unlock()
		if abandoned {
			w.logf("worker %s: %s abandoned (lease superseded)", w.cfg.ID, id)
			return
		}
		req.Stats = stats
		switch {
		case runErr != nil:
			req.Error = runErr.Error()
		case res.Interrupted:
			req.Interrupted = true
		default:
			req.Summary = service.Summarize(res)
		}
		if res != nil {
			req.Executions = res.Executions
		}
		req.Checkpoint, req.CheckpointSum, req.TriageLog = w.handoff(id)
	}
	var resp CompleteResponse
	// Completion must survive a drain: the parent ctx may already be
	// cancelled, but the coordinator still needs the final checkpoint.
	cctx, cdone := context.WithTimeout(context.Background(), 30*time.Second)
	defer cdone()
	if err := w.post(cctx, "/fleet/complete", req, &resp); err != nil {
		w.logf("worker %s: complete %s: %v", w.cfg.ID, id, err)
		return
	}
	// Answered (accepted or superseded): the scratch state is dead.
	if err := os.RemoveAll(w.store.JobDir(id)); err != nil {
		w.logf("worker %s: remove scratch of %s: %v", w.cfg.ID, id, err)
	}
	if !resp.Accepted {
		w.logf("worker %s: %s completion superseded (lease moved on)", w.cfg.ID, id)
		return
	}
	w.logf("worker %s: completed %s (interrupted=%v err=%q)", w.cfg.ID, id, req.Interrupted, req.Error)
}

// campaign runs the assignment through service.RunCampaign — the
// runner the daemon's local runJob uses, on the same job-store layout —
// so a handoff between the two stays byte-identical. The worker adds
// only its heartbeats: one per task, in cursor order, for a
// deterministic handoff cadence, and a wall-clock ticker that keeps the
// lease alive through long tasks.
func (w *Worker) campaign(jctx context.Context, asg Assignment) (*core.CampaignResult, triage.Stats, error) {
	id := asg.Job
	backend := w.cfg.Exec
	if asg.Spec.Backend != "" {
		backend.Name = asg.Spec.Backend
	}
	executor, err := backend.Open()
	if err != nil {
		return nil, triage.Stats{}, err
	}
	defer exec.CloseExecutor(executor)

	w.mu.Lock()
	w.lastExecs = 0 // fresh campaign: do not leak the previous job's count
	w.mu.Unlock()

	hbStop := make(chan struct{})
	defer close(hbStop)
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		every := time.Duration(asg.HeartbeatEveryMS) * time.Millisecond
		if every <= 0 {
			every = 5 * time.Second
		}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-jctx.Done():
				return
			case <-t.C:
				w.heartbeat(jctx, asg)
			}
		}
	}()

	paths := w.store.Paths(id)
	paths.ScoreCache = w.scoreCachePath()
	return service.RunCampaign(jctx, service.Run{
		Spec:        asg.Spec,
		Executor:    executor,
		Paths:       paths,
		ExecTimeout: time.Duration(asg.ExecTimeoutMS) * time.Millisecond,
		Now:         w.cfg.Now,
		Logf: func(format string, args ...any) {
			w.logf("worker %s: %s "+format, append([]any{w.cfg.ID, id}, args...)...)
		},
		OnProgress: func(p core.Progress) {
			// Executions snapshot for heartbeats; progress callbacks run
			// on the campaign goroutine, heartbeat reads on the ticker's.
			w.mu.Lock()
			w.lastExecs = p.Executions
			w.mu.Unlock()
		},
		OnTask: func(done int) {
			if w.cfg.OnTask != nil {
				w.cfg.OnTask(id, done)
			}
			w.heartbeat(jctx, asg)
		},
	})
}

// scoreCachePath is the worker's seed-score cache, <dir>/scores.json,
// shared by every job it runs. Vectors are keyed by source hash and
// scoring reads nothing but the source, so a reassigned job, or another
// job over the same seeds, reuses them; the file lives outside the job
// scratch that stageAssignment resets and completion removes.
func (w *Worker) scoreCachePath() string { return filepath.Join(w.store.Dir(), "scores.json") }

// handoff reads the assignment's latest checkpoint log (with its
// checksum) and cumulative triage log for upload; missing files are left
// empty. Both logs grow by appends the campaign may be making while a
// heartbeat reads them, so only their whole lines ship, and the
// checksum covers exactly those bytes.
func (w *Worker) handoff(job string) (ckpt []byte, sum string, triageLog []byte) {
	if data, err := os.ReadFile(w.store.CheckpointPath(job)); err == nil {
		ckpt = harness.WholeLines(data)
		sum = Checksum(ckpt)
	}
	if data, err := os.ReadFile(triage.LogPath(w.store.TriageDir(job))); err == nil {
		triageLog = harness.WholeLines(data)
	}
	return ckpt, sum, triageLog
}

// heartbeat renews the lease, uploading the latest checkpoint and
// triage log. Send failures are logged, not retried into the campaign's
// critical path beyond the RPC retry budget — a persistently
// unreachable coordinator means the lease expires, which is the design.
func (w *Worker) heartbeat(ctx context.Context, asg Assignment) {
	if w.isKilled() || ctx.Err() != nil {
		return
	}
	w.hbMu.Lock()
	defer w.hbMu.Unlock()
	w.mu.Lock()
	execs := w.lastExecs
	w.mu.Unlock()
	hb := Heartbeat{
		Version:    WireVersion,
		Worker:     w.cfg.ID,
		Job:        asg.Job,
		Lease:      asg.Lease,
		Executions: execs,
	}
	hb.Checkpoint, hb.CheckpointSum, hb.TriageLog = w.handoff(asg.Job)
	var resp HeartbeatResponse
	if err := w.post(ctx, "/fleet/heartbeat", hb, &resp); err != nil {
		if ctx.Err() == nil {
			w.logf("worker %s: heartbeat %s: %v", w.cfg.ID, asg.Job, err)
		}
		return
	}
	if resp.Unknown || resp.Cancel {
		w.mu.Lock()
		if resp.Unknown {
			w.abandoned = true
		}
		cancel := w.cancelRun
		w.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
}

// post sends one coordinator RPC with the worker's retry policy, each
// attempt bounded by one heartbeat interval plus rpcSlack.
func (w *Worker) post(ctx context.Context, path string, in, out any) error {
	timeout := w.heartbeatEvery() + rpcSlack
	return harness.Retry(ctx, harness.RetryConfig{
		Attempts: rpcAttempts,
		Backoff:  w.cfg.Backoff,
	}, func(ctx context.Context) error {
		ctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		return postJSON(ctx, w.client, w.cfg.Coordinator+path, in, out)
	})
}

// postJSON POSTs in as JSON and decodes the response into out. A
// non-2xx status is an error.
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
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("fleet: %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
