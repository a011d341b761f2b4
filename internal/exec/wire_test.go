package exec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/buginject"
	"repro/internal/coverage"
	"repro/internal/jit"
	"repro/internal/jvm"
	"repro/internal/lang"
	"repro/internal/profile"
)

const wireSrc = `
class Wire {
  static void main() {
    long t = 0;
    for (int i = 0; i < 400; i += 1) {
      t = t + Wire.work(i);
    }
    print(t);
  }
  static int work(int x) {
    int y = x * 3 + 1;
    if (y > 100) {
      y = y - x;
    }
    return y;
  }
}
`

func wireProg(t *testing.T) *lang.Program {
	t.Helper()
	p, err := lang.Parse(wireSrc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// serveOne sends req through a real serve-mode exchange: the batch frame
// is JSON-encoded, ServeStream answers it, and the parent-side frame
// decoder checks the response.
func serveOne(t *testing.T, req *Request) *Response {
	t.Helper()
	frame, err := json.Marshal(&BatchRequest{Version: WireVersion, Requests: []*Request{req}})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := ServeStream(bytes.NewReader(append(frame, '\n')), &out); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(out.Bytes(), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("serve output has no response frame: %q", out.Bytes())
	}
	resp, err := decodeBatchResponse(lines[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Responses[0]
}

// TestWireRoundTrip pins the tentpole's core invariant: an execution
// that crosses the wire (request encode -> child Run -> response encode
// -> parent decode) reconstructs the exact ExecResult jvm.Run produces
// in-process.
func TestWireRoundTrip(t *testing.T) {
	spec := jvm.Spec{Impl: buginject.HotSpot, Version: 17}
	for _, opt := range []jvm.Options{
		{ForceCompile: true, MaxSteps: 1_000_000},
		{ForceCompile: true, Flags: profile.DefaultFlags()},
		{ForceCompile: true, StructuredOBV: true},
		{PureInterpreter: true},
		{ForceCompile: true, Bugs: []*buginject.Bug{}}, // DisableBugs ablation
		{ForceCompile: true, CompileOnly: "Wire.work"},
	} {
		p := wireProg(t)
		want, err := jvm.Run(lang.CloneProgram(p), spec, opt)
		if err != nil {
			t.Fatal(err)
		}

		req, err := NewRequest(p, spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		resp := serveOne(t, req)
		if resp.Error != "" {
			t.Fatalf("in-band error: %s", resp.Error)
		}
		got, err := decodeRun(resp.Result, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("opt %+v: wire round trip diverged\n got: %+v\nwant: %+v", opt, got, want)
		}
	}
}

// TestRequestPlanRoundTrip: a compilation plan riding a request must
// survive the JSON wire exactly — the decoded child-side execution is
// byte-identical to running the plan in-process.
func TestRequestPlanRoundTrip(t *testing.T) {
	spec := jvm.Spec{Impl: buginject.HotSpot, Version: 17}
	plan := jit.GeneratePlan(3, jit.PlanFull)
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	opt := jvm.Options{ForceCompile: true, Plan: plan}

	p := wireProg(t)
	want, err := jvm.Run(lang.CloneProgram(p), spec, opt)
	if err != nil {
		t.Fatal(err)
	}

	req, err := NewRequest(p, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Request
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Options.Plan == nil || decoded.Options.Plan.Fingerprint() != plan.Fingerprint() {
		t.Fatalf("plan did not survive the wire: %+v", decoded.Options.Plan)
	}

	resp := serveOne(t, &decoded)
	if resp.Error != "" {
		t.Fatalf("in-band error: %s", resp.Error)
	}
	got, err := decodeRun(resp.Result, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("plan-bearing wire round trip diverged\n got: %+v\nwant: %+v", got, want)
	}
}

func TestWireCoverageHits(t *testing.T) {
	spec := jvm.Spec{Impl: buginject.HotSpot, Version: 17}
	direct := coverage.NewTracker()
	if _, err := jvm.Run(wireProg(t), spec, jvm.Options{ForceCompile: true, Coverage: direct}); err != nil {
		t.Fatal(err)
	}

	req, err := NewRequest(wireProg(t), spec, jvm.Options{ForceCompile: true, Coverage: coverage.NewTracker()})
	if err != nil {
		t.Fatal(err)
	}
	resp := serveOne(t, req)
	if resp.Error != "" {
		t.Fatalf("in-band error: %s", resp.Error)
	}
	if !reflect.DeepEqual(resp.Result.CoverageHits, direct.Names()) {
		t.Errorf("coverage hits diverged: %v vs %v", resp.Result.CoverageHits, direct.Names())
	}
	if len(resp.Result.CoverageHits) == 0 {
		t.Error("expected nonzero coverage")
	}
}

func TestWireProgramErrorInBand(t *testing.T) {
	spec := jvm.Spec{Impl: buginject.HotSpot, Version: 17}
	resp := serveOne(t, &Request{Spec: spec.Name(), Source: "class Broken {"})
	if resp.Error == "" || resp.Result != nil {
		t.Fatalf("want in-band parse error, got %+v", resp)
	}
	// The in-process backend must report the identical message, so seed
	// errors are backend-independent.
	_, err := lang.Parse("class Broken {")
	if err == nil || resp.Error != err.Error() {
		t.Errorf("error text diverged: %q vs %v", resp.Error, err)
	}
}

// TestWireVersionMismatch: the parent accepts a response frame only at
// exactly WireVersion (the child's side is
// TestServeStreamHelloAndNegotiation/out-of-range).
func TestWireVersionMismatch(t *testing.T) {
	for _, v := range []int{WireVersion - 1, WireVersion + 7} {
		frame := fmt.Sprintf(`{"version":%d,"responses":[{"timings":{"total_micros":1}}]}`, v)
		if _, err := decodeBatchResponse([]byte(frame), 1); err == nil || !strings.Contains(err.Error(), "wire version") {
			t.Errorf("parent accepted a v%d response: %v", v, err)
		}
	}
}

func TestWireUnknownInjection(t *testing.T) {
	resp := (&Request{Inject: "zap"}).run(nil)
	if resp.Error == "" || !strings.Contains(resp.Error, "unknown fault injection") {
		t.Errorf("want injection error, got %+v", resp)
	}
}

// TestCheckBackend: two backends, "" inherits a default, and the
// retired spawn-per-exec name is rejected with its replacement.
func TestCheckBackend(t *testing.T) {
	if got := Backends(); !reflect.DeepEqual(got, []string{"inprocess", "pool"}) {
		t.Errorf("Backends() = %v, want [inprocess pool]", got)
	}
	for _, ok := range []string{"", "inprocess", "pool"} {
		if err := CheckBackend(ok); err != nil {
			t.Errorf("CheckBackend(%q) = %v", ok, err)
		}
	}
	if err := CheckBackend("subprocess"); err == nil || !strings.Contains(err.Error(), "-backend pool -pool-recycle-after 1") {
		t.Errorf("retired backend: want an error naming the replacement, got %v", err)
	}
	if err := CheckBackend("quantum"); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Errorf("unknown backend: got %v", err)
	}
	if _, err := FromFlags("subprocess", "", 0, PoolTuning{}); err == nil {
		t.Error("FromFlags accepted the retired backend")
	}
}

type nopHook struct{}

func (nopHook) Observe(*jit.Context, jit.Event) error { return nil }

func TestNewRequestRejectsCompileHook(t *testing.T) {
	_, err := NewRequest(wireProg(t), jvm.Reference(), jvm.Options{CompileHook: nopHook{}})
	if err == nil || !strings.Contains(err.Error(), "CompileHook") {
		t.Errorf("want CompileHook rejection, got %v", err)
	}
}

func TestOBVSliceRoundTrip(t *testing.T) {
	var o profile.OBV
	for i := range o {
		o[i] = int64(i * 7)
	}
	back, err := profile.OBVFromSlice(o.Slice())
	if err != nil {
		t.Fatal(err)
	}
	if back != o {
		t.Errorf("round trip: %v != %v", back, o)
	}
	if _, err := profile.OBVFromSlice(make([]int64, len(o)+1)); err == nil {
		t.Error("want length-mismatch error (taxonomy skew)")
	}
}

func TestFlagSetNamesRoundTrip(t *testing.T) {
	fs := profile.DefaultFlags()
	back := profile.FlagSetFromNames(fs.Names())
	if !reflect.DeepEqual(back, fs) {
		t.Errorf("round trip: %v != %v", back, fs)
	}
	if profile.FlagSetFromNames(nil) != nil {
		t.Error("empty names must decode to nil (preserves Options.Flags nil-ness)")
	}
}
