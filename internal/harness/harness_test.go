package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestPanicContainmentAndQuarantine(t *testing.T) {
	dir := t.TempDir()
	sup, err := New(Config{QuarantineDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	task := Task{
		ID:       "Boom",
		SeedName: "Boom",
		Round:    3,
		Source:   "class Boom {}",
		Run: func(context.Context) (any, error) {
			panic("synthetic substrate panic")
		},
	}
	out := sup.Do(context.Background(), task)
	if out.Fault == nil {
		t.Fatal("panic not contained into a fault")
	}
	if out.Fault.Class != FaultHarness {
		t.Errorf("Class = %s, want %s", out.Fault.Class, FaultHarness)
	}
	if !strings.Contains(out.Fault.Message, "synthetic substrate panic") {
		t.Errorf("Message = %q, want the panic value", out.Fault.Message)
	}
	if out.Fault.Stack == "" {
		t.Error("fault has no stack")
	}
	if out.Fault.QuarantinePath == "" {
		t.Fatal("fault not quarantined")
	}
	data, err := os.ReadFile(out.Fault.QuarantinePath)
	if err != nil {
		t.Fatalf("quarantine artifact unreadable: %v", err)
	}
	var stored Fault
	if err := json.Unmarshal(data, &stored); err != nil {
		t.Fatalf("quarantine artifact not JSON: %v", err)
	}
	if stored.Source != task.Source || stored.Round != 3 {
		t.Errorf("stored fault = %+v, want source and round preserved", stored)
	}

	// A quarantined task is skipped, returning the stored fault.
	out2 := sup.Do(context.Background(), task)
	if !out2.Skipped || out2.Fault == nil || out2.Fault.Class != FaultHarness {
		t.Errorf("second Do = %+v, want skip with stored fault", out2)
	}
}

func TestQuarantineReloadAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	q1, err := OpenQuarantine(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := q1.Add(&Fault{Class: FaultHeapExhausted, TaskID: "Test0001#r2", Message: "blew the heap", Source: "class T {}"}); err != nil {
		t.Fatal(err)
	}
	// A second open (a resumed process) sees the same index.
	q2, err := OpenQuarantine(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := q2.Get("Test0001#r2")
	if f == nil {
		t.Fatal("quarantine entry lost across reopen")
	}
	if f.Class != FaultHeapExhausted || f.Source != "class T {}" {
		t.Errorf("reloaded fault = %+v", f)
	}
	if n := q2.Len(); n != 1 {
		t.Errorf("reopened quarantine holds %d entries, want 1", n)
	}
}

func TestWatchdogClassifiesHangAsTimeout(t *testing.T) {
	sup, err := New(Config{ExecTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	out := sup.Do(context.Background(), Task{
		ID: "Hang",
		Run: func(ctx context.Context) (any, error) {
			<-ctx.Done() // a fuel-proof hang: only the watchdog can end it
			return nil, ctx.Err()
		},
	})
	if out.Fault == nil || out.Fault.Class != FaultTimeout {
		t.Fatalf("outcome = %+v, want timeout fault", out)
	}
}

func TestWatchdogPreservesResults(t *testing.T) {
	sup, err := New(Config{ExecTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	out := sup.Do(context.Background(), Task{
		ID:  "Quick",
		Run: func(context.Context) (any, error) { return 42, nil },
	})
	if out.Fault != nil || out.Err != nil || out.Value != 42 {
		t.Fatalf("outcome = %+v, want value 42", out)
	}
}

func TestShutdownCancelIsNotATaskFault(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sup, err := New(Config{ExecTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	out := sup.Do(ctx, Task{ID: "T", Run: func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	if out.Fault != nil {
		t.Fatalf("shutdown misclassified as fault: %+v", out.Fault)
	}
	if !errors.Is(out.Err, context.Canceled) {
		t.Errorf("Err = %v, want context.Canceled", out.Err)
	}
}

func TestTransientRetryWithBackoff(t *testing.T) {
	errFlaky := errors.New("flaky io")
	var slept []time.Duration
	attempts := 0
	sup, err := New(Config{
		MaxRetries:  3,
		Backoff:     10 * time.Millisecond,
		IsTransient: func(err error) bool { return errors.Is(err, errFlaky) },
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sup.Do(context.Background(), Task{ID: "Flaky", Run: func(context.Context) (any, error) {
		attempts++
		if attempts <= 2 {
			return nil, errFlaky
		}
		return "ok", nil
	}})
	if out.Err != nil || out.Value != "ok" {
		t.Fatalf("outcome = %+v, want success after retries", out)
	}
	if out.Retries != 2 || attempts != 3 {
		t.Errorf("Retries = %d attempts = %d, want 2/3", out.Retries, attempts)
	}
	if len(slept) != 2 || slept[1] != 2*slept[0] {
		t.Errorf("backoff schedule = %v, want doubling", slept)
	}

	// Non-transient errors are not retried.
	attempts = 0
	out = sup.Do(context.Background(), Task{ID: "Hard", Run: func(context.Context) (any, error) {
		attempts++
		return nil, errors.New("permanent")
	}})
	if attempts != 1 || out.Err == nil {
		t.Errorf("permanent error retried %d times", attempts)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	in := &Checkpoint{
		Header:  json.RawMessage(`{"config":{"seed":3}}`),
		Records: []json.RawMessage{json.RawMessage(`{"executions":912,"delta":1.5}`), json.RawMessage(`{"skipped":true}`)},
	}
	if err := in.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("atomic write left a temp file behind")
	}
	out, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("loaded = %s, want %s", out.Records, in.Records)
	}
	raw, _ := os.ReadFile(path)
	want := fmt.Sprintf("{\"version\":%d,\"header\":{\"config\":{\"seed\":3}}}\n{\"executions\":912,\"delta\":1.5}\n{\"skipped\":true}\n", CheckpointVersion)
	if string(raw) != want {
		t.Fatalf("saved log:\n%s\nwant:\n%s", raw, want)
	}

	// A torn last record is not part of the log; a bad whole one is an
	// error, and so is a wrong version.
	torn, err := DecodeCheckpoint(append(raw, `{"executions":7`...))
	if err != nil || len(torn.Records) != 2 {
		t.Errorf("torn tail: %v records, error %v; want the 2 whole ones", torn, err)
	}
	if _, err := DecodeCheckpoint(append(raw, "{\"executions\":7\n"...)); err == nil || !strings.Contains(err.Error(), "record 3") {
		t.Errorf("a whole record that is not JSON: error %v, want one naming record 3", err)
	}
	bad := strings.Replace(string(raw), fmt.Sprintf(`"version":%d`, CheckpointVersion), `"version":999`, 1)
	if _, err := DecodeCheckpoint([]byte(bad)); err == nil {
		t.Error("version mismatch accepted")
	}
	for _, rec := range []string{"", "{}\n{}"} {
		ck := &Checkpoint{Header: in.Header, Records: []json.RawMessage{json.RawMessage(rec)}}
		if err := ck.Save(path); err == nil {
			t.Errorf("record %q saved, want an error: a record is one line", rec)
		}
	}
}

// TestCheckpointRejectsOlderVersions: snapshots from builds that
// stamped v2 to v5, compact or indented, and log headers that carry an
// older version are refused with an error that says what to do.
func TestCheckpointRejectsOlderVersions(t *testing.T) {
	for v := 2; v < CheckpointVersion; v++ {
		for _, data := range []string{
			fmt.Sprintf(`{"version":%d,"task_cursor":1,"executions":2}`, v),
			fmt.Sprintf("{\n  \"version\": %d,\n  \"task_cursor\": 1,\n  \"executions\": 2\n}", v),
			fmt.Sprintf("{\"version\":%d,\"header\":{}}\n{}\n", v),
		} {
			_, err := DecodeCheckpoint([]byte(data))
			if err == nil || !strings.Contains(err.Error(), "older build; start a fresh campaign") {
				t.Errorf("v%d checkpoint %q: want an older-build error, got %v", v, data, err)
			}
		}
	}
}

// TestCheckpointLogAppends: the first flush writes the base log whole,
// later ones append the queued records, and a failed append keeps its
// record queued and leaves no gap or torn bytes once it is retried.
func TestCheckpointLogAppends(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missing")
	path := filepath.Join(dir, "ck.json")
	base := &Checkpoint{Header: json.RawMessage(`{"seed":1}`), Records: []json.RawMessage{json.RawMessage(`{"n":0}`)}}
	l := NewCheckpointLog(path, base)
	defer l.Close()
	l.Add([]byte(`{"n":1}`))
	if err := l.Flush(); err == nil {
		t.Fatal("flush into a missing directory succeeded")
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	l.Add([]byte(`{"n":2}`))
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	head := fmt.Sprintf("{\"version\":%d,\"header\":{\"seed\":1}}\n", CheckpointVersion)
	check := func(want string) {
		t.Helper()
		if got, _ := os.ReadFile(path); string(got) != head+want {
			t.Fatalf("log:\n%s\nwant:\n%s", got, head+want)
		}
	}
	check("{\"n\":0}\n{\"n\":1}\n{\"n\":2}\n")

	// An append that fails part-way: the handle cannot write, and the
	// failed write left stray bytes behind.
	good := l.f
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	l.f = ro
	l.Add([]byte(`{"n":3}`))
	if err := l.Flush(); err == nil {
		t.Fatal("append through a read-only handle succeeded")
	}
	if _, err := good.Write([]byte(`{"n":`)); err != nil {
		t.Fatal(err)
	}
	l.f = good
	l.Add([]byte(`{"n":4}`))
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	check("{\"n\":0}\n{\"n\":1}\n{\"n\":2}\n{\"n\":3}\n{\"n\":4}\n")
}

// TestOpenLogTrimsTornTail: OpenLog replays only the whole lines, cuts
// a torn tail off so appends start on a clean line, and leaves the file
// alone when the replay fails.
func TestOpenLogTrimsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte("a\nb\nc"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(path, func([]byte) error { return errors.New("refused") }); err == nil {
		t.Fatal("a failed replay opened the log")
	}
	if got, _ := os.ReadFile(path); string(got) != "a\nb\nc" {
		t.Fatalf("a failed replay changed the log to %q", got)
	}
	var replayed string
	f, err := OpenLog(path, func(whole []byte) error { replayed = string(whole); return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("d\n")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); replayed != "a\nb\n" || string(got) != "a\nb\nd\n" {
		t.Errorf("replayed %q, log %q; want \"a\\nb\\n\" and \"a\\nb\\nd\\n\"", replayed, got)
	}
	missing := filepath.Join(t.TempDir(), "new.jsonl")
	g, err := OpenLog(missing, func(whole []byte) error { replayed = string(whole); return nil })
	if err != nil || replayed != "" {
		t.Fatalf("missing log: replayed %q, error %v", replayed, err)
	}
	g.Close()
}

func TestComponentFromStack(t *testing.T) {
	stack := `goroutine 1 [running]:
repro/internal/jit.(*Compiler).Compile(0xc0000b2000)
	/root/repo/internal/jit/pipeline.go:47 +0x1b
repro/internal/vm.(*Machine).tierUp(0xc0000c4000)
	/root/repo/internal/vm/machine.go:305 +0x99`
	if got := ComponentFromStack(stack); got != "jit" {
		t.Errorf("component = %q, want jit (innermost frame wins)", got)
	}
	if got := ComponentFromStack("nothing of ours"); got != "" {
		t.Errorf("component = %q, want empty", got)
	}
}

func TestHsErrReportsCarryFaultContext(t *testing.T) {
	f := &Fault{
		Class: FaultHarness, TaskID: "Boom", Round: 1, Component: "jit",
		Message: "index out of range", Retries: 2, QuarantinePath: "/q/Boom.json",
	}
	rep := f.HsErrReport("openjdk-17")
	for _, want := range []string{"harness-fault", "retries=2", "/q/Boom.json", "openjdk-17"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestShutdownContextOnSIGINT(t *testing.T) {
	ctx, stop := ShutdownContext(context.Background())
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("SIGINT did not cancel the shutdown context")
	}
}
