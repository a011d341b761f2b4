package triage

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/lang"
	"repro/internal/reduce"
)

// queueSize bounds the finding queue. A full queue makes Submit block:
// triage applies backpressure rather than dropping findings silently.
const queueSize = 64

// WorkerConfig tunes the async triage worker.
type WorkerConfig struct {
	// Store receives deduplicated findings; required.
	Store *Store
	// Executor runs reduction probes (nil = in-process).
	Executor exec.Executor
	// ReduceTimeout is the wall-clock watchdog per reduction (default
	// 60s). A reduction that hangs past it is abandoned and the finding
	// quarantined; the cancelled context drains the abandoned goroutine.
	ReduceTimeout time.Duration
	// Now supplies occurrence timestamps (test seam; nil = wall clock).
	Now func() int64
}

// Stats counts what the worker did with the findings it consumed.
type Stats struct {
	Received    int // findings submitted
	Novel       int // new signatures stored
	Duplicates  int // findings deduplicated against existing signatures
	Reduced     int // novel signatures successfully minimized
	Quarantined int // reductions the harness had to contain (panic/hang)
	Errors      int // store or reduction errors
	Dropped     int // findings rejected after shutdown
}

// Worker consumes campaign findings asynchronously: each one is
// signatured and deduplicated against the store, and novel signatures
// are reduced exactly once, under a supervisor watchdog so a
// pathological reduction is quarantined instead of wedging the
// campaign. One goroutine processes findings in submission order, so a
// deterministic campaign yields a deterministic store.
type Worker struct {
	cfg WorkerConfig
	sup *harness.Supervisor
	ch  chan *core.Finding

	mu    sync.Mutex
	stats Stats

	startOnce sync.Once
	done      chan struct{}

	// sendMu serializes Submit (read side) against Close (write side) so
	// a late Submit observes closed instead of sending on a closed
	// channel.
	sendMu sync.RWMutex
	closed bool
}

// NewWorker builds a triage worker over the given store.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("triage: worker needs a store")
	}
	if cfg.ReduceTimeout == 0 {
		cfg.ReduceTimeout = 60 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = func() int64 { return time.Now().Unix() }
	}
	sup, err := harness.New(harness.Config{ExecTimeout: cfg.ReduceTimeout})
	if err != nil {
		return nil, err
	}
	return &Worker{
		cfg:  cfg,
		sup:  sup,
		ch:   make(chan *core.Finding, queueSize),
		done: make(chan struct{}),
	}, nil
}

// Start launches the consumer goroutine. Cancelling ctx makes every
// queued reduction fail fast (the supervisor's watchdog context is
// derived from it), so the queue drains promptly on shutdown; intake
// still requires Close. Start must be called before findings can drain.
func (w *Worker) Start(ctx context.Context) {
	w.startOnce.Do(func() { go w.loop(ctx) })
}

// Submit hands one finding to the worker, blocking when the queue is
// full (backpressure, not loss). Returns false when the worker has been
// closed and the finding was dropped.
func (w *Worker) Submit(f core.Finding) bool {
	w.sendMu.RLock()
	defer w.sendMu.RUnlock()
	if w.closed {
		w.count(func(s *Stats) { s.Dropped++ })
		return false
	}
	w.ch <- &f
	return true
}

// Close stops intake and blocks until every queued finding is
// processed. Every record is in the store's log by then, so it never
// fails; the error result is kept for callers that check it.
func (w *Worker) Close() error {
	w.sendMu.Lock()
	if !w.closed {
		w.closed = true
		close(w.ch)
	}
	w.sendMu.Unlock()
	<-w.done
	return nil
}

// Stats returns a snapshot of the worker's counters.
func (w *Worker) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

func (w *Worker) loop(ctx context.Context) {
	defer close(w.done)
	for f := range w.ch {
		w.process(ctx, f)
	}
}

func (w *Worker) process(ctx context.Context, f *core.Finding) {
	w.mu.Lock()
	w.stats.Received++
	w.mu.Unlock()

	sig := Compute(f)
	key := sig.Key()
	occ := Occurrence{
		SeedName:    f.SeedName,
		Target:      f.Target.Name(),
		Round:       f.Round,
		Cursor:      f.Cursor,
		AtExecution: f.AtExecution,
		GeneratorID: f.GeneratorID,
		ChainLen:    len(f.Mutators),
		Time:        w.cfg.Now(),
	}
	raw, rawStmts := "", 0
	if f.Program != nil {
		raw, rawStmts = lang.Format(f.Program), lang.CountStmts(f.Program)
	}
	var obv []int64
	if f.OBV.Total() > 0 {
		obv = f.OBV.Slice()
	}
	novel, err := w.cfg.Store.Observe(sig, occ, raw, rawStmts, obv)
	if err != nil {
		w.count(func(s *Stats) { s.Errors++ })
		return
	}
	if !novel {
		w.count(func(s *Stats) { s.Duplicates++ })
		return
	}
	w.count(func(s *Stats) { s.Novel++ })
	if f.Program == nil || f.Bug == nil {
		return // nothing to reduce (unattributed or programless finding)
	}

	// Reduce exactly once per novel signature, under supervision: a
	// panicking or hanging reduction becomes a quarantine note on the
	// entry instead of taking down the campaign, and the entry keeps its
	// raw reproducer.
	out := w.sup.Do(ctx, harness.Task{
		ID:       "triage:" + key,
		SeedName: f.SeedName,
		Round:    f.Round,
		Source:   raw,
		Run: func(tctx context.Context) (any, error) {
			pipe := &reduce.Pipeline{Executor: w.cfg.Executor}
			return pipe.ReduceFinding(tctx, f.Program, f.Bug, f.Target), nil
		},
	})
	switch {
	case out.Fault != nil:
		note := string(out.Fault.Class) + ": " + out.Fault.Message
		if err := w.cfg.Store.Quarantine(key, note); err != nil {
			w.count(func(s *Stats) { s.Errors++ })
			return
		}
		w.count(func(s *Stats) { s.Quarantined++ })
	case out.Err != nil:
		if ctx.Err() != nil {
			return // shutdown, not a reduction failure
		}
		w.count(func(s *Stats) { s.Errors++ })
	default:
		res := out.Value.(*reduce.Result)
		if err := w.cfg.Store.Reduced(key, lang.Format(res.Program), res.StmtsAfter, res.Rounds, res.TestedCands); err != nil {
			w.count(func(s *Stats) { s.Errors++ })
			return
		}
		w.count(func(s *Stats) { s.Reduced++ })
	}
}

func (w *Worker) count(f func(*Stats)) {
	w.mu.Lock()
	f(&w.stats)
	w.mu.Unlock()
}
