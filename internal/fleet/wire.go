// Package fleet scales mopfuzzd horizontally: one coordinator daemon
// owns the job lifecycle (its scheduler remains the single source of
// truth) and shards queued campaigns across worker daemons over a small
// versioned JSON protocol, mirroring the conventions of the exec wire
// (explicit version field, reject on mismatch, no silent misreads).
//
// The fault model is leases plus checkpoint handoff. A worker holds a
// time-bounded lease on its assignment and renews it by heartbeating;
// each heartbeat (and the final completion) may carry the campaign's
// latest harness checkpoint, sha256-checksummed, which the coordinator
// lands atomically in the job's own state directory. When a worker
// dies, hangs, or partitions, its lease expires and the job goes back
// on the queue — the next claim, on another worker or the local runner
// pool, resumes from that last-handed-off checkpoint, and the resumed
// campaign's ResultSummary is byte-identical to an uninterrupted run
// (the same guarantee the daemon's restart-resume tests pin). Findings
// travel as triage-log bytes and fold into the job's triage store by
// signature, so overlapping uploads from a dead worker and its
// successor cannot duplicate findings.
//
// Every call goes from worker to coordinator: an idle worker claims
// work, and the claim waits at the coordinator until a job is handed to
// it or one heartbeat interval passes. The coordinator never calls a
// worker, so a dead worker costs nothing but its missing claims. With
// no live worker claiming, the coordinator declines the job and the
// scheduler runs it locally — fleet mode degrades to exactly the
// single-daemon behavior.
package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/triage"
)

// WireVersion guards the fleet protocol. Every message carries it and
// both ends reject a mismatch: a version-skewed worker must fail
// loudly at its first claim, not corrupt a campaign mid-flight.
const WireVersion = 2

// Checksum returns the sha256 hex digest guarding checkpoint bytes in
// transit. An upload whose digest does not match is rejected and the
// previously landed checkpoint kept — a torn or tampered snapshot must
// never replace a good one.
func Checksum(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// CheckVersion rejects a message from a version-skewed peer.
func CheckVersion(got int) error {
	if got != WireVersion {
		return fmt.Errorf("fleet: wire version %d, want %d", got, WireVersion)
	}
	return nil
}

// ClaimRequest asks the coordinator for work. An idle worker keeps one
// claim outstanding: the claim waits at the coordinator for up to one
// heartbeat interval, and the worker sends the next as soon as it
// returns empty, so claims double as the idle-worker liveness ping. A
// worker whose last claim is older than the lease TTL counts as dead.
type ClaimRequest struct {
	Version int    `json:"version"`
	Worker  string `json:"worker"` // worker ID (unique per fleet)
}

// ClaimResponse answers a claim with the fleet timing contract and, when
// a job was handed to the claim, its assignment. A worker's first claim
// is answered at once, so it learns the heartbeat interval before its
// claims start to wait that long.
type ClaimResponse struct {
	Version int `json:"version"`
	// HeartbeatEveryMS is how often the worker must heartbeat a held
	// lease; a claim waits at most this long.
	HeartbeatEveryMS int64 `json:"heartbeat_every_ms"`
	// LeaseTTLMS is the lease duration; missing heartbeats for this long
	// forfeits the assignment.
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
	// Assignment is the job handed to this claim (nil = no work yet).
	Assignment *Assignment `json:"assignment,omitempty"`
}

// Assignment hands one job to a worker in a ClaimResponse. It is
// self-contained: the spec, the resume checkpoint (when the job has
// prior progress), and the timing contract, so the worker holds no
// fleet state beyond the lease.
type Assignment struct {
	Version int    `json:"version"`
	Job     string `json:"job"`
	Lease   string `json:"lease"` // opaque token naming this grant

	Spec core.JobSpec `json:"spec"`

	// Checkpoint resumes the campaign from prior progress (nil = fresh
	// start); CheckpointSum guards it in transit.
	Checkpoint    []byte `json:"checkpoint,omitempty"`
	CheckpointSum string `json:"checkpoint_sum,omitempty"`

	// Campaign knobs the worker must mirror from the coordinator's
	// scheduler config, so a handoff between any two executors stays
	// byte-identical.
	CheckpointEvery int   `json:"checkpoint_every,omitempty"`
	ExecTimeoutMS   int64 `json:"exec_timeout_ms,omitempty"`

	HeartbeatEveryMS int64 `json:"heartbeat_every_ms"`
}

// Heartbeat renews a lease and hands off progress. The worker sends
// one after every completed seed task (deterministic, cursor-ordered)
// plus on a wall-clock tick, so even a campaign stuck inside one long
// task keeps its lease alive.
type Heartbeat struct {
	Version int    `json:"version"`
	Worker  string `json:"worker"`
	Job     string `json:"job"`
	Lease   string `json:"lease"`

	Executions int `json:"executions,omitempty"`

	// Checkpoint is the campaign's latest snapshot (optional; sum-guarded).
	Checkpoint    []byte `json:"checkpoint,omitempty"`
	CheckpointSum string `json:"checkpoint_sum,omitempty"`

	// TriageLog is the worker's cumulative findings log (findings.jsonl
	// bytes). Kept by the coordinator and merged into the job's triage
	// store if the lease is lost, so a dead worker's findings survive it.
	TriageLog []byte `json:"triage_log,omitempty"`
}

// HeartbeatResponse piggybacks control signals on the renewal.
type HeartbeatResponse struct {
	Version int `json:"version"`
	// Cancel tells the worker to stop the campaign (job DELETE or drain
	// propagating); the worker checkpoints and completes as interrupted.
	Cancel bool `json:"cancel,omitempty"`
	// Unknown means the lease is gone (expired and requeued): the worker
	// must abandon the run silently — its successor already owns the job.
	Unknown bool `json:"unknown,omitempty"`
}

// CompleteRequest settles an assignment: the final checkpoint, the full
// triage log, the worker-side triage stats, and either a result summary
// (finished), an error (failed), or Interrupted (cancelled/drained).
type CompleteRequest struct {
	Version int    `json:"version"`
	Worker  string `json:"worker"`
	Job     string `json:"job"`
	Lease   string `json:"lease"`

	Interrupted bool                   `json:"interrupted,omitempty"`
	Error       string                 `json:"error,omitempty"`
	Summary     *service.ResultSummary `json:"summary,omitempty"`
	Stats       triage.Stats           `json:"stats"`
	Executions  int                    `json:"executions,omitempty"`

	Checkpoint    []byte `json:"checkpoint,omitempty"`
	CheckpointSum string `json:"checkpoint_sum,omitempty"`
	TriageLog     []byte `json:"triage_log,omitempty"`
}

// CompleteResponse acknowledges settlement. Accepted=false means the
// lease was no longer held (the job moved on); the worker discards its
// local state either way.
type CompleteResponse struct {
	Version  int  `json:"version"`
	Accepted bool `json:"accepted"`
}
