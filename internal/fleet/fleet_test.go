package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fleet/chaos"
	"repro/internal/harness"
	"repro/internal/service"
)

// envOpts tunes a test fleet.
type envOpts struct {
	dir      string
	workers  int
	leaseTTL time.Duration
	hbEvery  time.Duration
	// late is how many of the workers, counted from the last, start
	// claiming only when the test calls join.
	late         int
	workerClient *http.Client
}

// env is one coordinator (an httptest server) + N workers claiming
// from it over real HTTP.
type env struct {
	t      *testing.T
	sched  *service.Scheduler
	coord  *Coordinator
	wrkers []*Worker
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	onTask func(workerIdx int, job string, done int)
}

func newEnv(t *testing.T, o envOpts) *env {
	t.Helper()
	if o.dir == "" {
		o.dir = t.TempDir()
	}
	if o.leaseTTL == 0 {
		o.leaseTTL = 1500 * time.Millisecond
	}
	if o.hbEvery == 0 {
		o.hbEvery = 100 * time.Millisecond
	}
	sched, err := service.NewScheduler(service.Config{Dir: o.dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	e := &env{t: t, sched: sched}
	e.coord = NewCoordinator(CoordinatorConfig{
		Sched:          sched,
		LeaseTTL:       o.leaseTTL,
		HeartbeatEvery: o.hbEvery,
		Logf:           t.Logf,
	})
	mux := http.NewServeMux()
	e.coord.Mount(mux)
	coordSrv := httptest.NewServer(mux)
	t.Cleanup(coordSrv.Close)
	sched.SetRemote(e.coord)

	ctx, cancel := context.WithCancel(context.Background())
	e.ctx, e.cancel = ctx, cancel

	for i := 0; i < o.workers; i++ {
		idx := i
		w, err := NewWorker(WorkerConfig{
			ID:          fmt.Sprintf("w%d", i+1),
			Coordinator: coordSrv.URL,
			Dir:         t.TempDir(),
			Backoff:     harness.Backoff{Base: 20 * time.Millisecond},
			Client:      o.workerClient,
			Logf:        t.Logf,
			OnTask: func(job string, done int) {
				e.mu.Lock()
				f := e.onTask
				e.mu.Unlock()
				if f != nil {
					f(idx, job, done)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if i < o.workers-o.late {
			w.Start(ctx)
		}
		e.wrkers = append(e.wrkers, w)
	}

	sched.Start(ctx)
	t.Cleanup(func() {
		cancel()
		sched.Wait()
		for _, w := range e.wrkers {
			w.Wait()
		}
	})
	return e
}

// setOnTask installs the per-task chaos hook (fires on worker campaign
// goroutines).
func (e *env) setOnTask(f func(workerIdx int, job string, done int)) {
	e.mu.Lock()
	e.onTask = f
	e.mu.Unlock()
}

// join starts a late worker's claim loop.
func (e *env) join(idx int) { e.wrkers[idx].Start(e.ctx) }

// live returns the coordinator's count of live workers.
func (e *env) live() string {
	return metricValue(e.t, metricsText(e.sched), `mopfuzzd_fleet_workers{state="live"}`)
}

// waitLive blocks until the coordinator counts n live workers. Each has
// then sent its first claim, which is answered at once, so its next
// claim is on its way to wait for a job.
func (e *env) waitLive(n int) {
	e.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for e.live() != fmt.Sprint(n) {
		if time.Now().After(deadline) {
			e.t.Fatalf("never saw %d live workers", n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitView polls the job until pred holds.
func waitView(t *testing.T, s *service.Scheduler, id string, timeout time.Duration, pred func(service.JobView) bool) service.JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		j := s.Get(id)
		if j == nil {
			t.Fatalf("job %s disappeared", id)
		}
		v := j.View()
		if pred(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s after %v", id, v.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func waitDone(t *testing.T, s *service.Scheduler, id string, timeout time.Duration) service.JobView {
	t.Helper()
	v := waitView(t, s, id, timeout, func(v service.JobView) bool { return v.State.Terminal() })
	if v.State != service.StateDone {
		t.Fatalf("job %s ended %s (error %q), want done", id, v.State, v.Error)
	}
	return v
}

// fleetSpec has enough tasks (3 seeds) that a mid-campaign kill leaves
// real work for the successor.
func fleetSpec() core.JobSpec { return core.JobSpec{SeedCount: 3, Budget: 150, Seed: 7} }

// localBaseline runs the spec on a plain (fleet-less) scheduler and
// returns its terminal view plus the triage report signature keys.
func localBaseline(t *testing.T, spec core.JobSpec) (service.JobView, []string) {
	t.Helper()
	return localBaselineIn(t, t.TempDir(), spec)
}

// localBaselineIn is localBaseline with the scheduler's state directory
// at dir, which keeps the job's final checkpoint log.
func localBaselineIn(t *testing.T, dir string, spec core.JobSpec) (service.JobView, []string) {
	t.Helper()
	sched, err := service.NewScheduler(service.Config{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sched.Start(ctx)
	j, err := sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, sched, j.ID(), 5*time.Minute)
	keys := reportKeys(t, sched, j.ID())
	cancel()
	sched.Wait()
	return v, keys
}

// resultJSON is the byte-identity projection (no wall-clock state).
func resultJSON(t *testing.T, v service.JobView) []byte {
	t.Helper()
	if v.Result == nil {
		t.Fatal("job has no result summary")
	}
	data, err := json.Marshal(v.Result)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// reportKeys returns the job's deduplicated triage signature keys,
// sorted.
func reportKeys(t *testing.T, s *service.Scheduler, id string) []string {
	t.Helper()
	rep, err := s.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(rep.Entries))
	for _, e := range rep.Entries {
		keys = append(keys, e.Key)
	}
	sort.Strings(keys)
	return keys
}

func metricsText(s *service.Scheduler) string {
	var buf bytes.Buffer
	s.RenderMetrics(&buf)
	return buf.String()
}

// metricValue extracts one sample line's value from rendered metrics.
func metricValue(t *testing.T, text, name string) string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimPrefix(line, name+" ")
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, text)
	return ""
}

// TestRemoteRunMatchesLocal pins the fleet's core guarantee: a job
// sharded to a worker produces the same ResultSummary bytes as a local
// run, and the same deduplicated findings.
func TestRemoteRunMatchesLocal(t *testing.T) {
	spec := fleetSpec()
	want, wantKeys := localBaseline(t, spec)

	e := newEnv(t, envOpts{workers: 1})
	e.waitLive(1)
	j, err := e.sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, e.sched, j.ID(), 5*time.Minute)
	if v.Worker != "w1" {
		t.Errorf("job ran on %q, want w1 (remote)", v.Worker)
	}
	if got, wantB := resultJSON(t, v), resultJSON(t, want); !bytes.Equal(got, wantB) {
		t.Errorf("remote result differs from local:\nremote %s\nlocal  %s", got, wantB)
	}
	if gotKeys := reportKeys(t, e.sched, j.ID()); !equalStrings(gotKeys, wantKeys) {
		t.Errorf("remote findings %v, local %v", gotKeys, wantKeys)
	}
	text := metricsText(e.sched)
	if metricValue(t, text, `mopfuzzd_fleet_remote_jobs_total{outcome="done"}`) != "1" {
		t.Errorf("remote done counter != 1:\n%s", text)
	}
}

// TestWorkerKilledMidTaskResumesOnOtherWorker is the chaos acceptance
// criterion: SIGKILL a worker mid-campaign; the lease expires, the job
// requeues, resumes on the other worker from the handed-off checkpoint,
// and finishes with byte-identical results and no duplicate findings.
// Either worker may claim the job first; the one that does is killed.
func TestWorkerKilledMidTaskResumesOnOtherWorker(t *testing.T) {
	spec := fleetSpec()
	want, wantKeys := localBaseline(t, spec)

	e := newEnv(t, envOpts{workers: 2, leaseTTL: 800 * time.Millisecond, hbEvery: 60 * time.Millisecond})
	e.waitLive(2)
	var once sync.Once
	var killed atomic.Int32
	killed.Store(-1)
	e.setOnTask(func(idx int, job string, done int) {
		// Kill the first claimant after its third task: heartbeats for
		// tasks 1-2 have already handed off a checkpoint.
		if done == 3 {
			once.Do(func() {
				killed.Store(int32(idx))
				e.wrkers[idx].Kill()
			})
		}
	})
	j, err := e.sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, e.sched, j.ID(), 5*time.Minute)

	k := killed.Load()
	if k < 0 {
		t.Fatal("no worker ran three tasks of the job")
	}
	dead, survivor := e.wrkers[k].cfg.ID, e.wrkers[1-k].cfg.ID
	if v.Worker != survivor {
		t.Errorf("job finished on %q, want %s (resumed after %s died)", v.Worker, survivor, dead)
	}
	if v.Requeues < 1 {
		t.Errorf("requeues = %d, want >= 1", v.Requeues)
	}
	if v.Resumes < 1 {
		t.Errorf("resumes = %d, want >= 1 (checkpoint handoff restore)", v.Resumes)
	}
	if got, wantB := resultJSON(t, v), resultJSON(t, want); !bytes.Equal(got, wantB) {
		t.Errorf("resumed result differs from uninterrupted local run:\ngot  %s\nwant %s", got, wantB)
	}
	// Fleet-global dedup: the dead worker's partial upload plus the
	// successor's full log must merge to exactly the local finding set.
	if gotKeys := reportKeys(t, e.sched, j.ID()); !equalStrings(gotKeys, wantKeys) {
		t.Errorf("findings after merge %v, want %v (no dups, none lost)", gotKeys, wantKeys)
	}
	text := metricsText(e.sched)
	if metricValue(t, text, "mopfuzzd_requeues_total") == "0" {
		t.Errorf("requeue counter not incremented:\n%s", text)
	}
	if metricValue(t, text, "mopfuzzd_fleet_leases_expired_total") == "0" {
		t.Errorf("lease expiry counter not incremented:\n%s", text)
	}
}

// TestTornHandoffResumesOnOtherWorker: the coordinator lands a log
// whose tail is torn mid-record, as a crash mid-append leaves one, and
// a worker that resumes it drops the torn record, runs that task again
// and finishes with the uninterrupted standalone run's result.
func TestTornHandoffResumesOnOtherWorker(t *testing.T) {
	spec := fleetSpec()
	dir := t.TempDir()
	want, _ := localBaselineIn(t, dir, spec)
	store, err := service.OpenJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(store.CheckpointPath(want.ID))
	if err != nil {
		t.Fatal(err)
	}
	// Keep the header and three records, then half of the fourth.
	cut := 0
	for i := 0; i < 4; i++ {
		cut += bytes.IndexByte(full[cut:], '\n') + 1
	}
	next := bytes.IndexByte(full[cut:], '\n')
	if next < 2 {
		t.Fatalf("the baseline's log has too few records:\n%s", full)
	}
	torn := full[:cut+next/2]

	e := newEnv(t, envOpts{workers: 1})
	e.waitLive(1)
	id := service.FormatID(1)
	if err := os.MkdirAll(e.sched.Store().JobDir(id), 0o755); err != nil {
		t.Fatal(err)
	}
	e.coord.landCheckpoint(id, torn, Checksum(torn))
	if landed, err := os.ReadFile(e.sched.Store().CheckpointPath(id)); err != nil || !bytes.Equal(landed, torn) {
		t.Fatalf("the coordinator did not land the torn log: %v", err)
	}
	j, err := e.sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() != id {
		t.Fatalf("job %s, want %s", j.ID(), id)
	}
	v := waitDone(t, e.sched, id, 5*time.Minute)
	if v.Worker != "w1" || v.Resumes < 1 {
		t.Errorf("job ran on %q with %d resumes, want a resume on w1", v.Worker, v.Resumes)
	}
	if got, wantB := resultJSON(t, v), resultJSON(t, want); !bytes.Equal(got, wantB) {
		t.Errorf("result resumed from a torn log differs from the uninterrupted local run:\ngot  %s\nwant %s", got, wantB)
	}
}

// TestZeroWorkersFallsBackToLocal pins graceful degradation: a
// coordinator with no enrolled workers still completes jobs on the
// local runner pool.
func TestZeroWorkersFallsBackToLocal(t *testing.T) {
	spec := fleetSpec()
	e := newEnv(t, envOpts{workers: 0})
	j, err := e.sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, e.sched, j.ID(), 5*time.Minute)
	if v.Worker != "" {
		t.Errorf("worker = %q, want local run", v.Worker)
	}
	text := metricsText(e.sched)
	if metricValue(t, text, `mopfuzzd_fleet_remote_jobs_total{outcome="declined"}`) != "1" {
		t.Errorf("declined counter != 1:\n%s", text)
	}
}

// TestHeartbeatPartitionRequeues drops every heartbeat: the lease must
// expire and the job must still finish (requeued, then completed
// locally since the worker stays busy with the orphaned run).
func TestHeartbeatPartitionRequeues(t *testing.T) {
	ct := &chaos.Transport{}
	ct.Drop("/fleet/heartbeat", true)
	spec := fleetSpec()
	e := newEnv(t, envOpts{
		workers:      1,
		leaseTTL:     600 * time.Millisecond,
		hbEvery:      60 * time.Millisecond,
		workerClient: &http.Client{Transport: ct, Timeout: 10 * time.Second},
	})
	e.waitLive(1)
	j, err := e.sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, e.sched, j.ID(), 5*time.Minute)
	if v.Requeues < 1 {
		t.Errorf("requeues = %d, want >= 1 (partitioned worker forfeits lease)", v.Requeues)
	}
	if ct.Injected() == 0 {
		t.Error("chaos transport never dropped a heartbeat")
	}
}

// TestCorruptCheckpointUploadRejected corrupts one checkpoint handoff
// in flight: the coordinator must reject it (checksum mismatch), keep
// the previous snapshot, and the campaign must still finish correctly.
func TestCorruptCheckpointUploadRejected(t *testing.T) {
	spec := fleetSpec()
	want, _ := localBaseline(t, spec)

	ct := &chaos.Transport{}
	ct.CorruptNextCheckpoints(1)
	e := newEnv(t, envOpts{
		workers:      1,
		workerClient: &http.Client{Transport: ct, Timeout: 10 * time.Second},
	})
	e.waitLive(1)
	j, err := e.sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, e.sched, j.ID(), 5*time.Minute)
	if ct.Corrupted() != 1 {
		t.Fatalf("chaos corrupted %d checkpoint uploads, want 1", ct.Corrupted())
	}
	text := metricsText(e.sched)
	if metricValue(t, text, "mopfuzzd_fleet_checkpoint_rejects_total") != "1" {
		t.Errorf("checkpoint reject counter != 1:\n%s", text)
	}
	if got, wantB := resultJSON(t, v), resultJSON(t, want); !bytes.Equal(got, wantB) {
		t.Errorf("result after corrupt upload differs:\ngot  %s\nwant %s", got, wantB)
	}
}

// TestTransientDispatchErrorsRetried fails the worker's first two
// claims: harness retry must carry its claim through on the third, and
// the job must still run on the worker.
func TestTransientDispatchErrorsRetried(t *testing.T) {
	ct := &chaos.Transport{}
	ct.FailNext("/fleet/claim", 2)
	e := newEnv(t, envOpts{
		workers:      1,
		workerClient: &http.Client{Transport: ct},
	})
	e.waitLive(1)
	j, err := e.sched.Submit(fleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, e.sched, j.ID(), 5*time.Minute)
	if v.Worker != "w1" {
		t.Errorf("job ran on %q, want w1 despite transient claim failures", v.Worker)
	}
	if ct.Injected() != 2 {
		t.Errorf("chaos injected %d failures, want 2", ct.Injected())
	}
}

// TestKilledIdleWorkerGetsNoJob: a worker killed while idle withdraws
// its parked claim and claims no more, so it counts dead once its last
// claim is a lease TTL old; a job submitted then is handed to no one
// and runs locally.
func TestKilledIdleWorkerGetsNoJob(t *testing.T) {
	e := newEnv(t, envOpts{workers: 1, leaseTTL: 400 * time.Millisecond, hbEvery: 50 * time.Millisecond})
	e.waitLive(1)
	e.wrkers[0].Kill()
	e.waitLive(0)
	j, err := e.sched.Submit(fleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, e.sched, j.ID(), 5*time.Minute)
	if v.Worker != "" {
		t.Errorf("job ran on %q, want a local run", v.Worker)
	}
	text := metricsText(e.sched)
	if metricValue(t, text, `mopfuzzd_fleet_remote_jobs_total{outcome="declined"}`) != "1" {
		t.Errorf("declined counter != 1:\n%s", text)
	}
	if metricValue(t, text, "mopfuzzd_fleet_leases_granted_total") != "0" {
		t.Errorf("the killed worker was granted a lease:\n%s", text)
	}
}

// TestWireVersionMismatchRejected pins the versioned-protocol contract:
// a claim from a version-1 (push-era) worker is refused.
func TestWireVersionMismatchRejected(t *testing.T) {
	e := newEnv(t, envOpts{workers: 0})
	mux := http.NewServeMux()
	e.coord.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	body, _ := json.Marshal(ClaimRequest{Version: 1, Worker: "wx"})
	resp, err := http.Post(srv.URL+"/fleet/claim", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("version-skewed claim: status %d, want 400", resp.StatusCode)
	}
	if e.live() != "0" {
		t.Error("version-skewed worker counts as live")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPowerScheduleHandoffByteIdentical extends the chaos acceptance
// criterion to the power schedule: the checkpoint hands the bandit's
// arm statistics and the current round plan to the successor worker, so
// a mid-campaign kill must still reproduce the uninterrupted local
// power run byte-for-byte.
func TestPowerScheduleHandoffByteIdentical(t *testing.T) {
	spec := fleetSpec()
	spec.Schedule = "power"
	want, wantKeys := localBaseline(t, spec)

	// w2 joins only as w1 dies, so w1 claims the job.
	e := newEnv(t, envOpts{workers: 2, late: 1, leaseTTL: 800 * time.Millisecond, hbEvery: 60 * time.Millisecond})
	e.waitLive(1)
	var once sync.Once
	e.setOnTask(func(idx int, job string, done int) {
		if idx == 0 && done == 3 {
			once.Do(func() {
				e.join(1)
				e.wrkers[0].Kill()
			})
		}
	})
	j, err := e.sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, e.sched, j.ID(), 5*time.Minute)

	if v.Worker != "w2" {
		t.Errorf("job finished on %q, want w2 (resumed after w1 died)", v.Worker)
	}
	if v.Resumes < 1 {
		t.Errorf("resumes = %d, want >= 1 (schedule state restored from handoff)", v.Resumes)
	}
	if got, wantB := resultJSON(t, v), resultJSON(t, want); !bytes.Equal(got, wantB) {
		t.Errorf("power result after handoff differs from uninterrupted local run:\ngot  %s\nwant %s", got, wantB)
	}
	if gotKeys := reportKeys(t, e.sched, j.ID()); !equalStrings(gotKeys, wantKeys) {
		t.Errorf("findings after power handoff %v, want %v", gotKeys, wantKeys)
	}
}

// TestWorkerKeepsScoreCache: a worker running a power job scores the
// pool into its worker-wide score cache (<dir>/scores.json), which
// outlives the job's scratch state, so a second assignment of the same
// job makes no profiling dry-runs. ScoreSeeds saves the cache only
// after a dry-run, so an unchanged file means there was none.
func TestWorkerKeepsScoreCache(t *testing.T) {
	spec := fleetSpec()
	spec.Schedule = "power"
	e := newEnv(t, envOpts{workers: 1})
	w := e.wrkers[0]
	var mu sync.Mutex
	scored := -1
	e.setOnTask(func(_ int, job string, done int) {
		if done == 1 {
			n := corpus.LoadScoreCache(w.scoreCachePath()).Len()
			mu.Lock()
			scored = n
			mu.Unlock()
		}
	})
	e.waitLive(1)
	j, err := e.sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, e.sched, j.ID(), 5*time.Minute); v.Worker != "w1" {
		t.Fatalf("job ran on %q, want w1 (remote)", v.Worker)
	}
	mu.Lock()
	if scored != spec.SeedCount {
		t.Errorf("score cache held %d vectors after the first task, want one per seed (%d)", scored, spec.SeedCount)
	}
	mu.Unlock()
	e.cancel()
	w.Wait()
	if n := corpus.LoadScoreCache(w.scoreCachePath()).Len(); n != spec.SeedCount {
		t.Fatalf("score cache holds %d vectors after the job settled, want %d", n, spec.SeedCount)
	}
	before, err := os.Stat(w.scoreCachePath())
	if err != nil {
		t.Fatal(err)
	}

	// Assign the same job again, as a requeue would, and run it to the
	// end; the coordinator is gone, so its heartbeats go nowhere.
	asg := Assignment{Version: WireVersion, Job: j.ID(), Lease: "again", Spec: spec}
	if err := asg.Spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := w.stageAssignment(asg); err != nil {
		t.Fatal(err)
	}
	res, _, err := w.campaign(context.Background(), asg)
	if err != nil || res.Interrupted {
		t.Fatalf("second assignment: err %v, interrupted %v", err, res != nil && res.Interrupted)
	}
	after, err := os.Stat(w.scoreCachePath())
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Errorf("second assignment rewrote the score cache (%v, %d bytes -> %v, %d bytes): it profiled seeds again",
			before.ModTime(), before.Size(), after.ModTime(), after.Size())
	}
}

// TestWorkerRemovesScratchAfterCompletion: once the coordinator has
// answered a job's completion, the worker deletes the job's scratch
// directory (checkpoint, triage store, quarantine), so a long-lived
// worker's disk does not grow with every job it has run.
func TestWorkerRemovesScratchAfterCompletion(t *testing.T) {
	e := newEnv(t, envOpts{workers: 1})
	e.waitLive(1)
	j, err := e.sched.Submit(fleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, e.sched, j.ID(), 5*time.Minute); v.Worker != "w1" {
		t.Fatalf("job ran on %q, want w1 (remote)", v.Worker)
	}
	e.cancel()
	e.wrkers[0].Wait()
	dir := e.wrkers[0].store.JobDir(j.ID())
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("worker kept %s after the job settled (stat: %v)", dir, err)
	}
}

// TestNegativeExecutionsRejected: a heartbeat or completion reporting a
// negative execution count is a 400, and the worker's executions
// counter keeps the last good report instead of running backwards.
func TestNegativeExecutionsRejected(t *testing.T) {
	sched, err := service.NewScheduler(service.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(CoordinatorConfig{Sched: sched, LeaseTTL: time.Hour})
	c.leases["job-0001"] = &lease{jobID: "job-0001", worker: "w1", token: "tok",
		expires: time.Now().Add(time.Hour), done: make(chan remoteDone, 1)}
	mux := http.NewServeMux()
	c.Mount(mux)
	post := func(path, body string) int {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec.Code
	}
	report := func(execs int64) string {
		return fmt.Sprintf(`{"version":%d,"worker":"w1","job":"job-0001","lease":"tok","executions":%d}`, WireVersion, execs)
	}
	if code := post("/fleet/claim", fmt.Sprintf(`{"version":%d,"worker":"w1"}`, WireVersion)); code != http.StatusOK {
		t.Fatalf("claim: status %d", code)
	}
	if code := post("/fleet/heartbeat", report(40)); code != http.StatusOK {
		t.Fatalf("heartbeat 40: status %d", code)
	}
	for _, path := range []string{"/fleet/heartbeat", "/fleet/complete"} {
		if code := post(path, report(math.MinInt64)); code != http.StatusBadRequest {
			t.Errorf("%s with executions %d: status %d, want 400", path, int64(math.MinInt64), code)
		}
	}
	if got := metricValue(t, metricsText(sched), `mopfuzzd_fleet_worker_executions_total{worker="w1"}`); got != "40" {
		t.Errorf("worker executions counter = %s, want 40", got)
	}
}

// TestGeneratorHandoffByteIdentical extends the handoff criterion to
// the generator subsystem: the checkpoint carries emission counts,
// slot provenance, and the pinned template extras, so a mid-campaign
// kill with generators enabled must still reproduce the uninterrupted
// local run byte-for-byte — even though the successor worker's triage
// store saw a different history.
func TestGeneratorHandoffByteIdentical(t *testing.T) {
	spec := fleetSpec()
	spec.Schedule = "power"
	spec.Generators = []string{"randprog", "template", "style"}
	spec.Styles = []string{"boxing-loop", "coarsen-store"}
	want, wantKeys := localBaseline(t, spec)

	// w2 joins only as w1 dies, so w1 claims the job.
	e := newEnv(t, envOpts{workers: 2, late: 1, leaseTTL: 800 * time.Millisecond, hbEvery: 60 * time.Millisecond})
	e.waitLive(1)
	var once sync.Once
	e.setOnTask(func(idx int, job string, done int) {
		// Kill after task 6: with a 3-seed pool the first refresh (round
		// boundary 1) has happened, so the handed-off checkpoint carries
		// live generator state, not an empty block.
		if idx == 0 && done == 6 {
			once.Do(func() {
				e.join(1)
				e.wrkers[0].Kill()
			})
		}
	})
	j, err := e.sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, e.sched, j.ID(), 5*time.Minute)

	if v.Worker != "w2" {
		t.Errorf("job finished on %q, want w2 (resumed after w1 died)", v.Worker)
	}
	if v.Resumes < 1 {
		t.Errorf("resumes = %d, want >= 1 (generator state restored from handoff)", v.Resumes)
	}
	if got, wantB := resultJSON(t, v), resultJSON(t, want); !bytes.Equal(got, wantB) {
		t.Errorf("generator result after handoff differs from uninterrupted local run:\ngot  %s\nwant %s", got, wantB)
	}
	if gotKeys := reportKeys(t, e.sched, j.ID()); !equalStrings(gotKeys, wantKeys) {
		t.Errorf("findings after generator handoff %v, want %v", gotKeys, wantKeys)
	}
}
