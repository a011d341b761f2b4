// Package chaos is the fleet's fault-injection harness. Its Transport
// wraps an http.RoundTripper and injects the failure modes the fleet's
// recovery behavior is pinned against: transient RPC errors, dropped
// heartbeats, corrupted checkpoint uploads. Worker death is simulated
// by fleet.Worker.Kill (in-process SIGKILL: the worker goes silent
// without completing); the root package's TestCLISlow exercises the
// real thing with an actual SIGKILL on a worker process.
//
// All rules match on URL path substrings, so one Transport can sit in
// front of a coordinator client (breaking dispatches) or a worker
// client (breaking heartbeats/completions).
package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
)

// ErrInjected is the error injected RPC failures return (wrapped), so
// tests can assert an observed failure was chaos-made.
var ErrInjected = errors.New("chaos: injected fault")

// Transport is a fault-injecting http.RoundTripper.
type Transport struct {
	// Base performs real requests (nil = http.DefaultTransport).
	Base http.RoundTripper

	mu sync.Mutex
	// failN[path] fails the next N requests whose URL path contains
	// path, returning a transport error (as if the peer was unreachable).
	failN map[string]int
	// dropPaths black-holes matching requests while set (the partition /
	// dead-peer simulation: errors, indefinitely).
	dropPaths map[string]bool
	// corruptCheckpoints flips a byte in the Checkpoint field of the
	// next N heartbeat/complete uploads, leaving the advertised checksum
	// stale — the coordinator must reject the upload.
	corruptCheckpoints int
	// counters
	injected  int
	corrupted int
}

// FailNext makes the next n requests whose path contains match fail
// with a transport error. Requests beyond n pass through.
func (t *Transport) FailNext(match string, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failN == nil {
		t.failN = map[string]int{}
	}
	t.failN[match] = n
}

// Drop starts or stops black-holing requests whose path contains match.
func (t *Transport) Drop(match string, on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dropPaths == nil {
		t.dropPaths = map[string]bool{}
	}
	t.dropPaths[match] = on
}

// CorruptNextCheckpoints corrupts the checkpoint payload of the next n
// uploads (heartbeats or completions) that carry one.
func (t *Transport) CorruptNextCheckpoints(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.corruptCheckpoints = n
}

// Injected returns how many requests chaos failed or dropped.
func (t *Transport) Injected() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.injected
}

// Corrupted returns how many checkpoint uploads chaos corrupted.
func (t *Transport) Corrupted() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.corrupted
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	t.mu.Lock()
	for match, on := range t.dropPaths {
		if on && strings.Contains(path, match) {
			t.injected++
			t.mu.Unlock()
			return nil, fmt.Errorf("%w: dropped %s", ErrInjected, path)
		}
	}
	for match, n := range t.failN {
		if n > 0 && strings.Contains(path, match) {
			t.failN[match] = n - 1
			t.injected++
			t.mu.Unlock()
			return nil, fmt.Errorf("%w: failed %s", ErrInjected, path)
		}
	}
	corrupt := t.corruptCheckpoints > 0 &&
		(strings.Contains(path, "/fleet/heartbeat") || strings.Contains(path, "/fleet/complete"))
	t.mu.Unlock()

	if corrupt && req.Body != nil {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		if tampered, ok := tamperCheckpoint(body); ok {
			t.mu.Lock()
			t.corruptCheckpoints--
			t.corrupted++
			t.mu.Unlock()
			body = tampered
		}
		req = req.Clone(req.Context())
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
	}

	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	return base.RoundTrip(req)
}

// tamperCheckpoint flips one byte inside the message's Checkpoint
// payload without touching its advertised checksum, returning false
// when the message carries no checkpoint (nothing to corrupt).
func tamperCheckpoint(body []byte) ([]byte, bool) {
	// Heartbeat and CompleteRequest share the checkpoint field shape, so
	// one envelope covers both.
	var msg map[string]json.RawMessage
	if err := json.Unmarshal(body, &msg); err != nil {
		return nil, false
	}
	raw, ok := msg["checkpoint"]
	if !ok {
		return nil, false
	}
	var ckpt []byte
	if err := json.Unmarshal(raw, &ckpt); err != nil || len(ckpt) == 0 {
		return nil, false
	}
	ckpt[len(ckpt)/2] ^= 0xff
	tampered, err := json.Marshal(ckpt)
	if err != nil {
		return nil, false
	}
	msg["checkpoint"] = tampered
	out, err := json.Marshal(msg)
	if err != nil {
		return nil, false
	}
	return out, true
}

var _ http.RoundTripper = (*Transport)(nil)
