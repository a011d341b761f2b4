package harness

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestBackoffDeterministicWithoutJitter(t *testing.T) {
	b := &Backoff{Base: 10 * time.Millisecond, Max: 60 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 60, 60}
	for i, w := range want {
		if got := b.Delay(i); got != w*time.Millisecond {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	if got := (&Backoff{}).Delay(3); got != 0 {
		t.Errorf("zero-value Delay = %v, want 0", got)
	}
}

func TestBackoffJitterBoundedAndSeedable(t *testing.T) {
	mk := func(seed int64) *Backoff {
		return &Backoff{Base: 100 * time.Millisecond, Jitter: 0.5, Rand: NewJitterSource(seed)}
	}
	a, b := mk(42), mk(42)
	sawDistinct := false
	var prev time.Duration
	for i := 0; i < 32; i++ {
		da, db := a.Delay(1), b.Delay(1)
		if da != db {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, da, db)
		}
		// Equal-jitter keeps the floor at (1-J)·d and the ceiling at d.
		if da < 100*time.Millisecond || da > 200*time.Millisecond {
			t.Fatalf("jittered Delay(1) = %v outside [100ms, 200ms]", da)
		}
		if i > 0 && da != prev {
			sawDistinct = true
		}
		prev = da
	}
	if !sawDistinct {
		t.Error("jittered delays never varied")
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	errFlaky := errors.New("flaky")
	var slept []time.Duration
	calls := 0
	err := Retry(context.Background(), RetryConfig{
		Attempts:    4,
		Backoff:     Backoff{Base: 5 * time.Millisecond},
		IsTransient: func(err error) bool { return errors.Is(err, errFlaky) },
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	}, func(context.Context) error {
		calls++
		if calls <= 2 {
			return errFlaky
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err = %v calls = %d, want success on third call", err, calls)
	}
	if len(slept) != 2 || slept[0] != 5*time.Millisecond || slept[1] != 10*time.Millisecond {
		t.Errorf("slept = %v, want [5ms 10ms]", slept)
	}
}

func TestRetryStopsOnPermanentError(t *testing.T) {
	errFatal := errors.New("fatal")
	calls := 0
	err := Retry(context.Background(), RetryConfig{
		Attempts:    5,
		IsTransient: func(error) bool { return false },
	}, func(context.Context) error { calls++; return errFatal })
	if !errors.Is(err, errFatal) || calls != 1 {
		t.Errorf("err = %v calls = %d, want one attempt", err, calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	errFlaky := errors.New("flaky")
	calls := 0
	err := Retry(context.Background(), RetryConfig{Attempts: 3}, func(context.Context) error {
		calls++
		return errFlaky
	})
	if !errors.Is(err, errFlaky) || calls != 3 {
		t.Errorf("err = %v calls = %d, want 3 attempts then the last error", err, calls)
	}
}

func TestRetryHonorsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Retry(ctx, RetryConfig{Attempts: 10, Backoff: Backoff{Base: time.Hour}}, func(context.Context) error {
		calls++
		cancel()
		return errors.New("fail")
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (backoff interrupted)", calls)
	}
}

func TestSupervisorJitteredBackoffStaysBounded(t *testing.T) {
	errFlaky := errors.New("flaky io")
	var slept []time.Duration
	attempts := 0
	sup, err := New(Config{
		MaxRetries:    3,
		Backoff:       10 * time.Millisecond,
		BackoffJitter: 0.5,
		BackoffSeed:   7,
		IsTransient:   func(err error) bool { return errors.Is(err, errFlaky) },
		Sleep:         func(d time.Duration) { slept = append(slept, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sup.Do(context.Background(), Task{ID: "Flaky", Run: func(context.Context) (any, error) {
		attempts++
		if attempts <= 3 {
			return nil, errFlaky
		}
		return "ok", nil
	}})
	if out.Err != nil || out.Value != "ok" {
		t.Fatalf("outcome = %+v, want success after retries", out)
	}
	floors := []time.Duration{5, 10, 20}
	ceils := []time.Duration{10, 20, 40}
	if len(slept) != 3 {
		t.Fatalf("slept %v, want 3 backoffs", slept)
	}
	for i, d := range slept {
		if d < floors[i]*time.Millisecond || d > ceils[i]*time.Millisecond {
			t.Errorf("backoff %d = %v outside [%v, %v]", i, d, floors[i]*time.Millisecond, ceils[i]*time.Millisecond)
		}
	}
}
