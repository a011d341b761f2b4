package exec

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/jit"
)

// maxBatchFrame bounds one NDJSON frame in serve mode. Campaign programs
// are a few KB of source; even a full-differential batch (one request
// per spec) stays far below this, so hitting the cap means a corrupt or
// hostile stream, not a legitimate workload.
const maxBatchFrame = 64 << 20

// ServeStream is the child side of the warm-pool protocol
// (`minijvm -exec-serve`): write a ServerHello, then answer NDJSON
// BatchRequest lines with BatchResponse lines until stdin closes. A
// clean EOF — the parent recycling the child — returns nil; a frame
// decodeBatchRequest rejects returns non-nil and the child exits
// ExitRequestError.
//
// The child keeps one jit.Cache across every request it serves. The
// cache is transparent (a hit is byte-equivalent to recompiling), so a
// warm child stays byte-identical to a cold one while skipping most
// compilation work — the pool's main throughput lever alongside the
// spawn it already avoided.
//
// Substrate panics are NOT recovered: an escaped panic is exactly the
// signal the parent's process-level containment classifies. The parent
// retries or faults only the in-flight batch.
func ServeStream(in io.Reader, out io.Writer) error {
	enc := json.NewEncoder(out)
	if err := enc.Encode(&ServerHello{Version: WireVersion, PID: os.Getpid()}); err != nil {
		return fmt.Errorf("exec: write hello: %w", err)
	}
	flush(out)

	cache := jit.NewCache(0)
	var served int64
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 64<<10), maxBatchFrame)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		batch, err := decodeBatchRequest(line)
		if err != nil {
			return err
		}
		resp := &BatchResponse{Version: WireVersion}
		corrupt := false
		for _, req := range batch.Requests {
			if req.Inject == "corrupt" {
				corrupt = true
			}
			resp.Responses = append(resp.Responses, req.run(cache))
			served++
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		resp.Telemetry = ChildTelemetry{Executions: served, HeapBytes: ms.HeapAlloc}
		if corrupt {
			// Injected frame corruption: emit bytes that are neither a
			// BatchResponse nor valid JSON, so the parent exercises its
			// corrupt-frame recovery path.
			fmt.Fprintln(out, "\x00exec: injected corrupt frame\x00")
			flush(out)
			continue
		}
		if err := enc.Encode(resp); err != nil {
			return fmt.Errorf("exec: write batch response: %w", err)
		}
		flush(out)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("exec: read batch: %w", err)
	}
	return nil
}

// flush pushes buffered output to the pipe when the writer buffers —
// serve mode must not sit on a finished response.
func flush(out io.Writer) {
	type flusher interface{ Flush() error }
	if f, ok := out.(flusher); ok {
		f.Flush()
	}
}
