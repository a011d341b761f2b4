package exec

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestServeStreamHelloAndNegotiation pins the serve-mode handshake: the
// child leads with a hello naming WireVersion, answers an empty batch at
// that version, and rejects a batch at any other.
func TestServeStreamHelloAndNegotiation(t *testing.T) {
	batch := func(version int) string {
		b, err := json.Marshal(&BatchRequest{Version: version})
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}

	t.Run("in-range", func(t *testing.T) {
		var out bytes.Buffer
		if err := ServeStream(strings.NewReader(batch(WireVersion)), &out); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(&out)
		if !sc.Scan() {
			t.Fatal("no hello line")
		}
		var hello ServerHello
		if err := json.Unmarshal(sc.Bytes(), &hello); err != nil {
			t.Fatalf("hello not JSON: %v", err)
		}
		if hello.Version != WireVersion {
			t.Errorf("hello advertises version %d, want %d", hello.Version, WireVersion)
		}
		if hello.PID == 0 {
			t.Error("hello missing pid")
		}
		if !sc.Scan() {
			t.Fatal("no batch response line")
		}
		var resp BatchResponse
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatalf("batch response not JSON: %v", err)
		}
		if resp.Version != WireVersion {
			t.Errorf("response version = %d, want %d", resp.Version, WireVersion)
		}
		if resp.Telemetry.HeapBytes == 0 {
			t.Error("telemetry missing heap self-report")
		}
	})

	t.Run("out-of-range", func(t *testing.T) {
		for _, v := range []int{WireVersion - 1, WireVersion + 1} {
			var out bytes.Buffer
			err := ServeStream(strings.NewReader(batch(v)), &out)
			if err == nil || !strings.Contains(err.Error(), "wire version") {
				t.Errorf("v%d batch: want wire-version error, got %v", v, err)
			}
		}
	})

	t.Run("garbage-frame", func(t *testing.T) {
		var out bytes.Buffer
		err := ServeStream(strings.NewReader("not json\n"), &out)
		if err == nil || !strings.Contains(err.Error(), "decode batch") {
			t.Errorf("want decode error, got %v", err)
		}
	})

	t.Run("clean-eof", func(t *testing.T) {
		var out bytes.Buffer
		if err := ServeStream(strings.NewReader(""), &out); err != nil {
			t.Errorf("EOF after hello must be a clean shutdown, got %v", err)
		}
	})
}

// TestServeStreamExecutesBatch runs a real two-execution batch through
// the child-side loop and checks in-band results and telemetry
// accounting.
func TestServeStreamExecutesBatch(t *testing.T) {
	req := &Request{
		Spec:   "openjdk-17",
		Source: "class T { static void main() { print(7); } }",
	}
	b, err := json.Marshal(&BatchRequest{Version: WireVersion, Requests: []*Request{req, req}})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := ServeStream(strings.NewReader(string(b)+"\n"), &out); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&out)
	sc.Scan() // hello
	if !sc.Scan() {
		t.Fatal("no batch response")
	}
	var resp BatchResponse
	if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Responses) != 2 {
		t.Fatalf("got %d responses, want 2", len(resp.Responses))
	}
	for i, r := range resp.Responses {
		if r.Error != "" || r.Result == nil {
			t.Fatalf("response %d: error=%q result=%v", i, r.Error, r.Result)
		}
		if len(r.Result.Output) != 1 || r.Result.Output[0] != "7" {
			t.Errorf("response %d output = %v, want [7]", i, r.Result.Output)
		}
	}
	if resp.Telemetry.Executions != 2 {
		t.Errorf("telemetry executions = %d, want 2", resp.Telemetry.Executions)
	}
}

// TestServeStreamRejectsNullRequest: a batch whose request entry is null
// is an unusable frame (the child exits ExitRequestError), never a nil
// dereference that the parent would misread as a substrate panic.
func TestServeStreamRejectsNullRequest(t *testing.T) {
	frame := fmt.Sprintf("{\"version\":%d,\"requests\":[null]}\n", WireVersion)
	var out bytes.Buffer
	err := ServeStream(strings.NewReader(frame), &out)
	if err == nil || !strings.Contains(err.Error(), "null") {
		t.Errorf("want null-request error, got %v", err)
	}
}
