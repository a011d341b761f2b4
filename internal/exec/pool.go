package exec

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	osexec "os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/jvm"
	"repro/internal/lang"
)

// PoolConfig tunes the warm child pool.
type PoolConfig struct {
	// Path is the minijvm binary.
	Path string
	// Timeout is the per-execution wall-clock watchdog. A batch of N
	// executions gets an N×Timeout deadline; when it expires the child
	// is killed and the batch classified FaultTimeout. Zero relies on
	// the caller's context alone.
	Timeout time.Duration
	// Children caps concurrently live children. Zero means GOMAXPROCS —
	// one warm child per worker the parallel engine can keep busy.
	Children int
	// RecycleAfter retires a child after it has served this many
	// executions (fresh one spawned on demand). Zero means 512; 1 is
	// spawn-per-exec: every batch gets a fresh child, which exits after
	// answering it.
	RecycleAfter int64
	// MaxChildHeapBytes retires a child whose self-reported Go heap
	// (ChildTelemetry.HeapBytes) reaches this high-water mark. Zero
	// means 256 MiB.
	MaxChildHeapBytes uint64
	// InjectFault is forwarded as Request.Inject on every execution — a
	// harness-test seam ("panic", "hang", "die", "corrupt"); production
	// leaves it empty.
	InjectFault string
}

func (c *PoolConfig) children() int {
	if c.Children > 0 {
		return c.Children
	}
	return runtime.GOMAXPROCS(0)
}

func (c *PoolConfig) recycleAfter() int64 {
	if c.RecycleAfter > 0 {
		return c.RecycleAfter
	}
	return 512
}

func (c *PoolConfig) maxHeap() uint64 {
	if c.MaxChildHeapBytes > 0 {
		return c.MaxChildHeapBytes
	}
	return 256 << 20
}

// Pool is the child-process execution backend: a bounded set of
// `minijvm -exec-serve` children, each handling NDJSON batches of
// executions over its lifetime instead of one execution per spawn. A
// differential rides a single batch (one request per spec, one round
// trip).
//
// Children are recycled after RecycleAfter executions or when their
// self-reported heap crosses MaxChildHeapBytes, so a leaky substrate
// cannot bloat the fleet. A child dying or hanging mid-batch is
// classified into the BackendFault taxonomy; marker-less deaths (the
// SIGKILL shape) are retried once on a fresh child before faulting, and
// only the in-flight batch is affected. Results are byte-identical to
// the inprocess backend, at any recycle budget — the warm child's
// compile cache is transparent.
//
// Safe for concurrent use; children() batches proceed in parallel.
type Pool struct {
	cfg PoolConfig

	// slots holds the pool's capacity: each token is either a warm idle
	// child or nil (permission to spawn one). Acquiring blocks when all
	// children are mid-batch, which is exactly the backpressure the
	// parallel engine needs.
	slots chan *poolChild

	mu     sync.Mutex
	closed bool
	live   map[*poolChild]struct{}

	execs         atomic.Int64
	faults        atomic.Int64
	childMicros   atomic.Int64
	spawns        atomic.Int64
	spawnsAvoided atomic.Int64
	batches       atomic.Int64
	recycledCount atomic.Int64
	recycledMem   atomic.Int64
	killed        atomic.Int64
	retries       atomic.Int64
}

// NewPool returns a warm-pool backend driving the given minijvm binary.
// Children spawn lazily on first use.
func NewPool(cfg PoolConfig) *Pool {
	p := &Pool{cfg: cfg, live: map[*poolChild]struct{}{}}
	n := cfg.children()
	p.slots = make(chan *poolChild, n)
	for i := 0; i < n; i++ {
		p.slots <- nil
	}
	return p
}

// Stats is a snapshot of the pool's counters.
type Stats struct {
	Executions  int64 // executions performed through the backend
	Faults      int64 // executions classified as backend faults
	ChildMicros int64 // cumulative child-reported wall time

	Spawns        int64 // child processes actually spawned
	SpawnsAvoided int64 // executions served without a fresh spawn
	Batches       int64 // serve-mode round trips

	RecycledByCount int64 // children retired at the execution budget
	RecycledByMem   int64 // children retired at the heap high-water mark
	Killed          int64 // children force-killed (timeouts, failures, Close)
	Retries         int64 // batches retried on a fresh child
}

// MeanBatch is the average executions per serve-mode round trip — the
// amortization the bench report pins (>1 means batching is real).
func (st Stats) MeanBatch() float64 {
	if st.Batches == 0 {
		return 0
	}
	return float64(st.Executions) / float64(st.Batches)
}

// Stats returns the counters accumulated so far.
func (p *Pool) Stats() Stats {
	return Stats{
		Executions:      p.execs.Load(),
		Faults:          p.faults.Load(),
		ChildMicros:     p.childMicros.Load(),
		Spawns:          p.spawns.Load(),
		SpawnsAvoided:   p.spawnsAvoided.Load(),
		Batches:         p.batches.Load(),
		RecycledByCount: p.recycledCount.Load(),
		RecycledByMem:   p.recycledMem.Load(),
		Killed:          p.killed.Load(),
		Retries:         p.retries.Load(),
	}
}

// Pids lists the live children's PIDs — a test seam for kill-and-recycle
// chaos (tests SIGKILL a real child mid-campaign and assert identical
// results).
func (p *Pool) Pids() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	var pids []int
	for c := range p.live {
		pids = append(pids, c.hello.PID)
	}
	return pids
}

// Close kills every child and fails all future Executes. In-flight
// batches finish (their slots are simply never restocked).
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	// Kill every idle child, restocking a nil for each token drained so
	// capacity is conserved and any goroutine blocked on acquire wakes
	// up to see the closed flag instead of waiting forever. Children
	// held by in-flight batches are retired by their holders when they
	// observe closed at restock time.
	for i := 0; i < cap(p.slots); i++ {
		select {
		case c := <-p.slots:
			if c != nil {
				p.retire(c, true)
			}
			p.slots <- nil
		default:
		}
	}
	return nil
}

// Execute implements Executor: a batch of one.
func (p *Pool) Execute(ctx context.Context, prog *lang.Program, spec jvm.Spec, opt jvm.Options) (*jvm.ExecResult, error) {
	res, err := p.executeBatch(ctx, prog, []jvm.Spec{spec}, []*jit.Plan{opt.Plan}, opt)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// ExecuteDifferential implements Executor: the whole differential — one
// request per spec — rides a single batch round trip on one child.
func (p *Pool) ExecuteDifferential(ctx context.Context, prog *lang.Program, specs []jvm.Spec, opt jvm.Options) (*jvm.Differential, error) {
	plans := make([]*jit.Plan, len(specs))
	for i := range plans {
		plans[i] = opt.Plan
	}
	res, err := p.executeBatch(ctx, prog, specs, plans, opt)
	if err != nil {
		return nil, err
	}
	d := &jvm.Differential{}
	for i, r := range res {
		d.Add(specs[i], r)
	}
	return d, nil
}

// ExecutePlanDifferential implements Executor: one spec, one request per
// plan, all riding a single batch round trip on one child.
func (p *Pool) ExecutePlanDifferential(ctx context.Context, prog *lang.Program, spec jvm.Spec, plans []*jit.Plan, opt jvm.Options) (*jvm.Differential, error) {
	specs := make([]jvm.Spec, len(plans))
	for i := range specs {
		specs[i] = spec
	}
	res, err := p.executeBatch(ctx, prog, specs, plans, opt)
	if err != nil {
		return nil, err
	}
	d := &jvm.Differential{}
	for i, r := range res {
		r.PlanID = jit.PlanID(plans[i])
		d.Add(spec, r)
	}
	return d, nil
}

// executeBatch runs prog once per (specs[i], plans[i]) pair in a single
// batch and decodes the results in order.
func (p *Pool) executeBatch(ctx context.Context, prog *lang.Program, specs []jvm.Spec, plans []*jit.Plan, opt jvm.Options) ([]*jvm.ExecResult, error) {
	src := lang.Format(prog)
	reqs := make([]*Request, len(specs))
	for i, spec := range specs {
		o := opt
		o.Plan = plans[i]
		req, err := newRequest(src, spec, o)
		if err != nil {
			return nil, err
		}
		req.Inject = p.cfg.InjectFault
		reqs[i] = req
	}
	resps, err := p.runBatch(ctx, reqs)
	if err != nil {
		return nil, err
	}
	out := make([]*jvm.ExecResult, len(resps))
	for i, resp := range resps {
		if out[i], err = handleResponse(resp, specs[i], opt); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runBatch pushes one batch through a pooled child, retrying once on a
// fresh child for marker-less deaths (SIGKILL shape, corrupt frames,
// spawn races). Deterministic failures — deadline expiry, substrate
// panics — are never retried.
func (p *Pool) runBatch(ctx context.Context, reqs []*Request) ([]*Response, error) {
	for attempt := 0; ; attempt++ {
		resps, retryable, err := p.tryBatch(ctx, reqs)
		if err == nil {
			return resps, nil
		}
		if retryable && attempt == 0 && ctx.Err() == nil {
			p.retries.Add(1)
			continue
		}
		if _, ok := err.(*BackendFault); ok {
			p.faults.Add(1)
		}
		return nil, err
	}
}

// tryBatch is one attempt: acquire a slot, warm or spawn a child, do the
// round trip, recycle or restock. The returned bool reports whether the
// failure is retryable on a fresh child.
func (p *Pool) tryBatch(ctx context.Context, reqs []*Request) ([]*Response, bool, error) {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return nil, false, errors.New("exec: pool is closed")
	}
	var c *poolChild
	select {
	case c = <-p.slots:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	p.mu.Lock()
	closed = p.closed
	p.mu.Unlock()
	if closed {
		if c != nil {
			p.retire(c, true)
		}
		p.slots <- nil // keep other waiters unblocked; they'll see closed too
		return nil, false, errors.New("exec: pool is closed")
	}

	spawned := false
	if c == nil {
		var err error
		c, err = spawnChild(p.cfg.Path)
		if err != nil {
			p.slots <- nil
			// Spawn failures are environmental (fd pressure, races with
			// recycling) — worth one retry.
			return nil, true, err
		}
		spawned = true
		p.spawns.Add(1)
		p.mu.Lock()
		p.live[c] = struct{}{}
		p.mu.Unlock()
	}

	deadline := time.Duration(0)
	if p.cfg.Timeout > 0 {
		deadline = p.cfg.Timeout * time.Duration(len(reqs))
	}
	resp, timedOut, err := c.roundTrip(ctx, deadline, &BatchRequest{Version: WireVersion, Requests: reqs})
	if err != nil {
		// Corrupt frames (including a wrong version, a null entry, or a
		// response count that does not match) land here too: the child
		// is killed and the failure is a marker-less, retryable
		// FaultHarness.
		p.retire(c, true)
		p.slots <- nil
		classified := classifyServeFailure(ctx, timedOut, deadline, c, err)
		var bf *BackendFault
		retryable := errors.As(classified, &bf) && bf.Class == harness.FaultHarness && !bf.panicked
		return nil, retryable, classified
	}

	p.execs.Add(int64(len(reqs)))
	p.batches.Add(1)
	avoided := int64(len(reqs))
	if spawned {
		avoided--
	}
	p.spawnsAvoided.Add(avoided)
	for _, r := range resp.Responses {
		p.childMicros.Add(r.Timings.TotalMicros)
	}

	// Recycle policy: telemetry decides whether this child goes back in
	// the pool warm or retires. Either way a slot is restocked, so
	// capacity is conserved.
	switch {
	case resp.Telemetry.Executions >= p.cfg.recycleAfter():
		p.recycledCount.Add(1)
		p.retire(c, false)
		p.slots <- nil
	case resp.Telemetry.HeapBytes >= p.cfg.maxHeap():
		p.recycledMem.Add(1)
		p.retire(c, false)
		p.slots <- nil
	default:
		p.restock(c)
	}
	return resp.Responses, false, nil
}

// restock returns a healthy child to the pool warm. It happens under the
// lock so a concurrent Close either sees this child in the channel (and
// kills it during its drain) or we see closed here and retire it
// ourselves — no leaked warm child.
func (p *Pool) restock(c *poolChild) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.retire(c, true)
	} else {
		p.slots <- c
		p.mu.Unlock()
	}
}

// retire removes a child from the live set and shuts it down: gracefully
// (close stdin, let the serve loop exit) for planned recycling, or by
// force for failures and Close.
func (p *Pool) retire(c *poolChild, force bool) {
	p.mu.Lock()
	delete(p.live, c)
	p.mu.Unlock()
	if c.shutdown(force) {
		p.killed.Add(1)
	}
}

// poolChild is one live `minijvm -exec-serve` process.
type poolChild struct {
	cmd    *osexec.Cmd
	stdin  io.WriteCloser
	out    *bufio.Reader
	stderr *bytes.Buffer
	hello  ServerHello

	waitOnce sync.Once
	waitErr  error
}

// spawnChild starts a serve-mode child and completes the hello
// handshake, requiring the child to speak WireVersion.
func spawnChild(path string) (*poolChild, error) {
	cmd := osexec.Command(path, "-exec-serve")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("exec: pool stdin: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("exec: pool stdout: %w", err)
	}
	c := &poolChild{cmd: cmd, stdin: stdin, out: bufio.NewReaderSize(stdout, 1<<20), stderr: &bytes.Buffer{}}
	cmd.Stderr = c.stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec: spawn minijvm serve child: %w", err)
	}
	line, err := readLineTimeout(c.out, 30*time.Second)
	if err != nil {
		c.shutdown(true)
		return nil, fmt.Errorf("exec: serve child hello: %w", err)
	}
	if err := json.Unmarshal(line, &c.hello); err != nil {
		c.shutdown(true)
		return nil, fmt.Errorf("exec: serve child hello: %w", err)
	}
	if c.hello.Version != WireVersion {
		c.shutdown(true)
		return nil, fmt.Errorf("exec: serve child speaks wire version %d, parent speaks %d (rebuild the binary)",
			c.hello.Version, WireVersion)
	}
	return c, nil
}

// roundTrip writes one batch frame and reads one response frame,
// enforcing the deadline by killing the child (which unblocks both pipe
// operations). timedOut reports a deadline kill as opposed to a child
// failure.
func (c *poolChild) roundTrip(ctx context.Context, deadline time.Duration, batch *BatchRequest) (resp *BatchResponse, timedOut bool, err error) {
	frame, err := json.Marshal(batch)
	if err != nil {
		return nil, false, fmt.Errorf("exec: encode batch: %w", err)
	}
	frame = append(frame, '\n')

	type outcome struct {
		resp *BatchResponse
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		if _, werr := c.stdin.Write(frame); werr != nil {
			done <- outcome{err: fmt.Errorf("write batch: %w", werr)}
			return
		}
		line, rerr := c.out.ReadBytes('\n')
		if rerr != nil {
			done <- outcome{err: fmt.Errorf("read batch response: %w", rerr)}
			return
		}
		br, derr := decodeBatchResponse(line, len(batch.Requests))
		done <- outcome{resp: br, err: derr}
	}()

	var timer <-chan time.Time
	if deadline > 0 {
		t := time.NewTimer(deadline)
		defer t.Stop()
		timer = t.C
	}
	select {
	case o := <-done:
		return o.resp, false, o.err
	case <-timer:
		c.cmd.Process.Kill()
		<-done // join: the pipe ops unblock once the child dies
		return nil, true, errors.New("batch deadline exceeded")
	case <-ctx.Done():
		c.cmd.Process.Kill()
		<-done
		return nil, false, ctx.Err()
	}
}

// shutdown ends the child: force kills immediately; graceful closes
// stdin so the serve loop exits on EOF, escalating to a kill if the
// child lingers. Reports whether a kill was needed. Idempotent.
func (c *poolChild) shutdown(force bool) (killed bool) {
	c.stdin.Close()
	if force {
		c.cmd.Process.Kill()
		killed = true
		c.wait()
		return killed
	}
	exited := make(chan struct{})
	go func() { c.wait(); close(exited) }()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		c.cmd.Process.Kill()
		killed = true
		<-exited
	}
	return killed
}

func (c *poolChild) wait() {
	c.waitOnce.Do(func() { c.waitErr = c.cmd.Wait() })
}

// exitCode is the child's exit status; valid only after death.
func (c *poolChild) exitCode() int {
	c.wait()
	var ee *osexec.ExitError
	if errors.As(c.waitErr, &ee) {
		return ee.ExitCode()
	}
	return 0
}

// stderrText snapshots the child's stderr; the buffer is only safe to
// read after the process has been waited on.
func (c *poolChild) stderrText() string {
	c.wait()
	return c.stderr.String()
}

// readLineTimeout reads one line with a wall-clock bound — used for the
// hello handshake, before the per-batch deadline machinery applies.
func readLineTimeout(r *bufio.Reader, d time.Duration) ([]byte, error) {
	type res struct {
		line []byte
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		line, err := r.ReadBytes('\n')
		ch <- res{line, err}
	}()
	select {
	case x := <-ch:
		return x.line, x.err
	case <-time.After(d):
		return nil, errors.New("timed out")
	}
}

// handleResponse turns one wire Response into the parent-side
// ExecResult: a program rejection becomes the same error jvm.Run
// returns, and coverage hits merge into the caller's tracker.
func handleResponse(resp *Response, spec jvm.Spec, opt jvm.Options) (*jvm.ExecResult, error) {
	if resp.Error != "" {
		// In-band program-level rejection: surface the exact jvm.Run
		// error text so both backends report identical seed errors.
		return nil, errors.New(resp.Error)
	}
	if resp.Result == nil {
		return nil, fmt.Errorf("exec: minijvm child sent neither result nor error")
	}
	res, err := decodeRun(resp.Result, spec)
	if err != nil {
		return nil, err
	}
	if opt.Coverage != nil {
		for _, name := range resp.Result.CoverageHits {
			opt.Coverage.Hit(name)
		}
	}
	return res, nil
}

// panicFault classifies a dead child whose stderr carries a Go panic
// marker, blaming the component from the child's stack. Returns nil for
// marker-less deaths (signal kills, abrupt exits), which the pool treats
// as retryable where a panic is deterministic and is not.
func panicFault(stderr string, code int) *BackendFault {
	for _, marker := range []string{"panic:", "fatal error:"} {
		i := strings.Index(stderr, marker)
		if i < 0 {
			continue
		}
		msg := stderr[i:]
		if nl := strings.IndexByte(msg, '\n'); nl >= 0 {
			msg = msg[:nl]
		}
		return &BackendFault{
			Class:     harness.FaultHarness,
			Component: harness.ComponentFromStack(stderr),
			Message:   strings.TrimSpace(msg),
			ExitCode:  code,
			Stderr:    stderr,
			panicked:  true,
		}
	}
	return nil
}

// classifyServeFailure maps a failed serve-mode round trip onto the
// fault taxonomy. Precedence: caller cancellation is nobody's fault, a
// deadline kill is FaultTimeout, a panic marker on stderr is
// FaultHarness with component blame, and anything else — EOF, corrupt
// frame, signal death — is a marker-less FaultHarness.
func classifyServeFailure(ctx context.Context, timedOut bool, deadline time.Duration, c *poolChild, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if timedOut {
		return &BackendFault{
			Class:   harness.FaultTimeout,
			Message: fmt.Sprintf("minijvm serve child (pid %d) exceeded the %s batch deadline and was killed", c.hello.PID, deadline),
			Stderr:  c.stderrText(),
		}
	}
	stderr := c.stderrText()
	if bf := panicFault(stderr, c.exitCode()); bf != nil {
		bf.Message = fmt.Sprintf("minijvm serve child (pid %d) died: %s", c.hello.PID, bf.Message)
		return bf
	}
	return &BackendFault{
		Class:    harness.FaultHarness,
		Message:  fmt.Sprintf("minijvm serve child (pid %d) failed mid-batch: %v", c.hello.PID, err),
		ExitCode: c.exitCode(),
		Stderr:   stderr,
	}
}

// BackendFault is a child-process death classified into the harness
// taxonomy. It implements harness.Faulter, so a supervised task
// surfacing it is recorded as a first-class fault — process-level
// containment composing with the supervisor's panic containment.
type BackendFault struct {
	Class     harness.FaultClass
	Component string
	Message   string
	ExitCode  int
	Stderr    string

	// panicked marks a death with a Go panic marker on stderr — a
	// deterministic substrate failure the pool must not retry (it would
	// just panic again), unlike the SIGKILL-shaped deaths it retries
	// once on a fresh child.
	panicked bool
}

// Error implements error.
func (f *BackendFault) Error() string {
	return fmt.Sprintf("exec: %s: %s", f.Class, f.Message)
}

// HarnessFault implements harness.Faulter. The child's stderr (which
// holds the goroutine stack for panics) travels as the fault's stack.
func (f *BackendFault) HarnessFault() *harness.Fault {
	return &harness.Fault{
		Class:     f.Class,
		Component: f.Component,
		Message:   f.Message,
		Stack:     f.Stderr,
	}
}
