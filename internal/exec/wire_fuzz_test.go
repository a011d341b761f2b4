package exec

import (
	"testing"

	"repro/internal/jvm"
)

// FuzzDecodeBatchResponse: the parent's frame decoder never panics, and
// a frame it accepts holds exactly n non-nil responses, each of which
// handleResponse turns into a result or an error without panicking. The
// seed corpus lives in testdata/fuzz/FuzzDecodeBatchResponse.
func FuzzDecodeBatchResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte, n uint8) {
		b, err := decodeBatchResponse(frame, int(n))
		if err != nil {
			return
		}
		if len(b.Responses) != int(n) {
			t.Fatalf("accepted %d responses for %d requests", len(b.Responses), n)
		}
		for i, r := range b.Responses {
			if r == nil {
				t.Fatalf("accepted a null response at %d", i)
			}
			handleResponse(r, jvm.Reference(), jvm.Options{})
		}
	})
}
