package core

import (
	"context"
	"sync"

	"repro/internal/harness"
)

// campaignEngine supplies the campaign loop with one task outcome per
// cursor position. The loop itself stays the single source of truth for
// control flow (budget, dead-pool, cancellation, checkpoints); engines
// only differ in how the outcome is produced.
type campaignEngine interface {
	// do returns the supervised outcome for the task at cursor. Called
	// with strictly increasing cursors, one call per loop iteration.
	do(cursor int) *harness.Outcome
	// stop releases engine resources; no do calls may follow.
	stop()
}

// newEngine builds the execution engine. roundLen > 0 installs a round
// barrier: speculation never crosses from the merge cursor's round into
// the next one. The power schedule needs this — a round's tasks are
// only defined once the round is planned, and planning reads the
// observations merged from the previous round — while roundLen == 0
// keeps the original unbounded-window speculation (off-mode campaigns
// are byte-identical either way; the barrier only affects scheduling
// latitude, not results).
func newEngine(ctx context.Context, sup *harness.Supervisor, workers, start, roundLen int,
	mk func(cursor int) harness.Task) campaignEngine {
	if workers <= 1 {
		return &seqEngine{ctx: ctx, sup: sup, mk: mk}
	}
	return newParEngine(ctx, sup, workers, start, roundLen, mk)
}

// seqEngine is the zero-configuration path: tasks run inline on the
// calling goroutine, exactly as the pre-parallel campaign did.
type seqEngine struct {
	ctx context.Context
	sup *harness.Supervisor
	mk  func(int) harness.Task
}

func (e *seqEngine) do(cursor int) *harness.Outcome {
	return e.sup.Do(e.ctx, e.mk(cursor))
}

func (e *seqEngine) stop() {}

// parEngine shards task execution across a worker pool while preserving
// the sequential result byte-identically. It exploits the campaign's
// key invariant: a task is fully determined by its cursor (seed, round,
// target, and RNG seed all derive from it), so workers can execute
// tasks speculatively and out of order. The merge side — this engine's
// do(), called by the campaign loop in cursor order — reassembles
// outcomes in order and applies harness.Finish, which owns every
// order-dependent decision (authoritative quarantine skip checks,
// quarantine writes, completion callbacks). Workers call only
// harness.Attempt, which never writes shared supervision state.
//
// Speculation is bounded by a window of 2×workers tasks beyond the
// cursor being merged. Tasks speculated past a stop point (budget
// exhausted, dead pool, cancellation) are discarded unmerged: stop drops
// the queued ones and cancels the ones already running, whose side
// effects reach only order-independent shared sinks (the compile cache,
// where a hit is equivalent to a miss, and the coverage set).
type parEngine struct {
	cancel   context.CancelFunc // ends the running tasks' context
	sup      *harness.Supervisor
	mk       func(int) harness.Task
	taskCh   chan int
	outCh    chan specOutcome
	pending  map[int]*harness.Outcome
	next     int // next cursor to hand to the pool
	window   int
	roundLen int // > 0: speculation stops at round boundaries
	wg       sync.WaitGroup
}

type specOutcome struct {
	cursor int
	out    *harness.Outcome
}

func newParEngine(ctx context.Context, sup *harness.Supervisor, workers, start, roundLen int,
	mk func(int) harness.Task) *parEngine {
	window := 2 * workers
	ctx, cancel := context.WithCancel(ctx)
	e := &parEngine{
		cancel:   cancel,
		sup:      sup,
		mk:       mk,
		taskCh:   make(chan int, window+2),
		outCh:    make(chan specOutcome, window+2),
		pending:  map[int]*harness.Outcome{},
		next:     start,
		window:   window,
		roundLen: roundLen,
	}
	for w := 0; w < workers; w++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for c := range e.taskCh {
				e.outCh <- specOutcome{cursor: c, out: e.sup.Attempt(ctx, e.mk(c))}
			}
		}()
	}
	return e
}

func (e *parEngine) do(cursor int) *harness.Outcome {
	// Keep the speculation window full. Channel capacities cover the
	// whole window, so neither this send nor a worker's result send can
	// block: outstanding tasks never exceed window+1. With a round
	// barrier, dispatch additionally stops at the merge round's end:
	// the next round's tasks are undefined until its plan is computed,
	// which happens on the merge goroutine after this round merges.
	for e.next <= cursor+e.window &&
		(e.roundLen <= 0 || e.next/e.roundLen == cursor/e.roundLen) {
		e.taskCh <- e.next
		e.next++
	}
	raw := e.pending[cursor]
	for raw == nil {
		so := <-e.outCh
		if so.cursor == cursor {
			raw = so.out
			break
		}
		e.pending[so.cursor] = so.out
	}
	delete(e.pending, cursor)
	return e.sup.Finish(e.mk(cursor), raw)
}

// stop cancels the tasks already running (at most one per worker),
// which end at their next execution, and drops the cursors still
// queued: the stopped campaign would discard their outcomes unmerged.
func (e *parEngine) stop() {
	e.cancel()
drain:
	for {
		select {
		case <-e.taskCh:
		default:
			break drain
		}
	}
	close(e.taskCh)
	e.wg.Wait()
}
