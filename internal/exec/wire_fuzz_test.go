package exec

import (
	"testing"

	"repro/internal/jvm"
)

// FuzzDecodeBatchRequest: the serve-mode child's frame decoder never
// panics, every request in a frame it accepts is non-nil, and each
// request's spec parse and plan validation return without panicking.
// The target never runs a request, so the Inject seam cannot fire. The
// seed corpus lives in testdata/fuzz/FuzzDecodeBatchRequest.
func FuzzDecodeBatchRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		b, err := decodeBatchRequest(frame)
		if err != nil {
			return
		}
		for i, r := range b.Requests {
			if r == nil {
				t.Fatalf("accepted a null request at %d", i)
			}
			_, _ = jvm.ParseSpec(r.Spec)
			if r.Options.Plan != nil {
				_ = r.Options.Plan.Validate()
			}
		}
	})
}

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
