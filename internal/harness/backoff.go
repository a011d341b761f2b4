package harness

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// JitterSource is a concurrency-safe random source for backoff jitter.
// It is a pointer type so Backoff stays a plain copyable value: retry
// policies travel by value through configs, and several goroutines may
// share one policy.
type JitterSource struct {
	mu sync.Mutex
	r  *rand.Rand
}

// NewJitterSource returns a seeded jitter source — tests pin the seed
// for reproducible retry schedules.
func NewJitterSource(seed int64) *JitterSource {
	return &JitterSource{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0, 1).
func (s *JitterSource) Float64() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.Float64()
}

// globalJitter is the fallback jitter source, seeded once per process.
var globalJitter = NewJitterSource(time.Now().UnixNano())

// Backoff computes exponential retry delays with optional jitter. The
// zero value (and any policy with Jitter == 0) is fully deterministic —
// Delay(n) == Base << n, capped at Max — which is what keeps default
// campaigns byte-identical. Fleet RPC retries set Jitter to spread
// correlated retries (a coordinator re-dispatching to many workers at
// once) instead of synchronizing them into thundering herds.
type Backoff struct {
	// Base is the delay before the first retry, doubled per attempt.
	Base time.Duration
	// Max caps the computed delay; 0 means uncapped.
	Max time.Duration
	// Jitter in (0, 1] randomizes each delay to
	// [(1-Jitter)·d, d] — "equal jitter" keeps a deterministic floor so
	// tests can still bound sleeps. 0 disables jitter entirely.
	Jitter float64
	// Rand is the jitter source. Nil falls back to a process-global
	// seeded source; tests inject NewJitterSource(seed) for
	// reproducible schedules.
	Rand *JitterSource
}

// Delay returns the delay before retry number attempt (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	d := b.Base
	if d <= 0 {
		return 0
	}
	for i := 0; i < attempt; i++ {
		d <<= 1
		if b.Max > 0 && d >= b.Max {
			d = b.Max
			break
		}
	}
	if b.Max > 0 && d > b.Max {
		d = b.Max
	}
	if b.Jitter <= 0 {
		return d
	}
	j := b.Jitter
	if j > 1 {
		j = 1
	}
	src := b.Rand
	if src == nil {
		src = globalJitter
	}
	// Equal-jitter: keep a (1-j)·d floor, randomize the rest.
	return time.Duration(float64(d) * (1 - j*src.Float64()))
}

// RetryConfig tunes Retry.
type RetryConfig struct {
	// Attempts bounds total tries (first call + retries). <=0 means a
	// single attempt.
	Attempts int
	// Backoff schedules the delay between attempts.
	Backoff Backoff
	// IsTransient classifies errors worth retrying. Nil retries every
	// error.
	IsTransient func(error) bool
	// Sleep is the clock seam (nil = time.Sleep, interruptible by ctx).
	Sleep func(time.Duration)
}

// Retry runs op with bounded attempts and (optionally jittered)
// exponential backoff between them, stopping early when ctx is
// cancelled or the error is not transient. It returns nil on the first
// success and the last error otherwise.
func Retry(ctx context.Context, cfg RetryConfig, op func(context.Context) error) error {
	attempts := cfg.Attempts
	if attempts <= 0 {
		attempts = 1
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			d := cfg.Backoff.Delay(attempt - 1)
			if cfg.Sleep != nil {
				cfg.Sleep(d)
			} else if d > 0 {
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					return ctx.Err()
				}
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err = op(ctx); err == nil {
			return nil
		}
		if cfg.IsTransient != nil && !cfg.IsTransient(err) {
			return err
		}
	}
	return err
}
