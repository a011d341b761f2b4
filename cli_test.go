package repro

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	osexec "os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/testbin"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// The binaries TestMain builds. Empty means the tests that run them skip.
var mopfuzzer, minijvm, mopfuzzd, triageTool string

func TestMain(m *testing.M) {
	testbin.Main(m, map[string]*string{
		"mopfuzzer": &mopfuzzer, "minijvm": &minijvm, "mopfuzzd": &mopfuzzd, "triage": &triageTool,
	})
}

// run runs a built binary and returns its stdout. A non-zero exit fails
// the test.
func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	return runIn(t, "", bin, args...)
}

// runIn is run in working directory dir ("" is the test's own).
func runIn(t *testing.T, dir, bin string, args ...string) string {
	t.Helper()
	if bin == "" {
		t.Skip("CLI binaries unavailable (-short or build failure)")
	}
	cmd := osexec.Command(bin, args...)
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update when record is set.
func checkGolden(t *testing.T, name, got string, record bool) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden && record {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of output>"
	}
	t.Fatalf("%s: first difference at line %d:\n got  %q\n want %q", path, i+1, line(gl), line(wl))
}

// cliGoldens are the mopfuzzer commands whose stdout
// testdata/<name>.golden pins. Each must match under every entry of
// backends: neither the worker count nor the execution backend may
// change a finding. Each run starts in an empty working directory, so
// a relative path in the arguments prints the same on every run.
var cliGoldens = []struct {
	name string
	args []string
	// slow names the backends only TestCLISlow runs, which keeps
	// tier-1 within its time budget.
	slow []string
}{
	{"openjdk-17", strings.Fields("-jdk openjdk-17 -seeds 4 -budget 200"), []string{"workers-4"}},
	{"planfuzz", strings.Fields("-jdk openj9-17 -seeds 8 -budget 600 -plan-fuzz=full"), []string{"workers-4", "pool", "recycle-25", "recycle-1"}},
	{"feature", strings.Fields("-jdk openjdk-17 -seeds 6 -budget 300 -plan-fuzz full -schedule power -generators randprog,template,style"), []string{"workers-4", "pool", "recycle-25", "recycle-1"}},
	{"distill", strings.Fields("-seeds 30 -distill"), nil},
	{"triage", strings.Fields("-jdk openjdk-17 -seeds 4 -budget 200 -triage-dir bugs"), []string{"workers-4"}},
}

// backends are the flags each golden runs under; the first records it
// under -update.
var backends = []struct {
	name string
	args []string
}{
	{"workers-1", []string{"-workers", "1"}},
	{"workers-4", []string{"-workers", "4"}},
	{"pool", []string{"-backend", "pool"}},
	{"recycle-25", []string{"-backend", "pool", "-pool-recycle-after", "25"}},
	{"recycle-1", []string{"-backend", "pool", "-pool-recycle-after", "1"}},
}

func checkCLIGoldens(t *testing.T, slow bool) {
	for _, g := range cliGoldens {
		for i, b := range backends {
			if slices.Contains(g.slow, b.name) != slow {
				continue
			}
			t.Run(g.name+"/"+b.name, func(t *testing.T) {
				if !*updateGolden { // the first backend writes the file the others read
					t.Parallel()
				}
				// The pool flags are ignored in process.
				args := append(slices.Concat(g.args, b.args), "-minijvm", minijvm, "-child-timeout", "30s")
				checkGolden(t, g.name+".golden", runIn(t, t.TempDir(), mopfuzzer, args...), i == 0)
			})
		}
	}
}

// TestCLIGoldens checks each golden under its fast backends, and the
// distill report from a cold and then a warm -score-cache. Regenerate
// with `go test . -run '^TestCLIGoldens$' -update` only when a change is
// meant to alter campaign output, and name each changed line in the
// commit.
func TestCLIGoldens(t *testing.T) {
	checkCLIGoldens(t, false)
	t.Run("distill/score-cache", func(t *testing.T) {
		cache := filepath.Join(t.TempDir(), "scores.json")
		for range 2 {
			checkGolden(t, "distill.golden", run(t, mopfuzzer, "-seeds", "30", "-distill", "-score-cache", cache), false)
		}
		if fi, err := os.Stat(cache); err != nil || fi.Size() == 0 {
			t.Errorf("score cache not written: %v", err)
		}
	})
}

// TestReduceNeedsCase: -reduce without -case is refused with a pointer
// to -triage-dir, which reduces a campaign's findings once per
// signature.
func TestReduceNeedsCase(t *testing.T) {
	if mopfuzzer == "" {
		t.Skip("CLI binaries unavailable (-short or build failure)")
	}
	out, err := osexec.Command(mopfuzzer, "-seeds", "1", "-budget", "10", "-reduce").CombinedOutput()
	var exit *osexec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "-triage-dir") {
		t.Errorf("mopfuzzer -reduce without -case: %v\n%s", err, out)
	}
}

// TestCLISlow runs the slow checks on the built binaries: the goldens
// under their slow backends, and a real SIGKILL of a fleet worker. It
// runs only when selected by name:
//
//	go test . -count=1 -run '^TestCLISlow$'
func TestCLISlow(t *testing.T) {
	if run := flag.Lookup("test.run"); run == nil || !strings.Contains(run.Value.String(), t.Name()) {
		t.Skip("slow: runs only when selected by name with -run")
	}
	checkCLIGoldens(t, true)
	t.Run("fleet-worker-sigkill", testFleetWorkerSIGKILL)
}

// daemon is a running built mopfuzzd.
type daemon struct {
	cmd *osexec.Cmd
	url string
}

// startDaemon starts the built mopfuzzd with args on a free local port
// and waits until its /healthz answers. The process is killed when the
// test ends.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	if mopfuzzd == "" {
		t.Skip("CLI binaries unavailable (-short or build failure)")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	d := &daemon{cmd: osexec.Command(mopfuzzd, append([]string{"-listen", addr}, args...)...), url: "http://" + addr}
	if testing.Verbose() {
		d.cmd.Stderr = os.Stderr
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.cmd.Process.Kill(); d.cmd.Wait() })
	waitFor(t, 10*time.Second, "/healthz", func() bool {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
		}
		return err == nil && resp.StatusCode == http.StatusOK
	})
	return d
}

func waitFor(t *testing.T, timeout time.Duration, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(timeout); !ok(); time.Sleep(100 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %s waiting for %s", timeout, what)
		}
	}
}

// call sends a request and returns the response body; a status other
// than 200 or 201 fails the test.
func (d *daemon) call(t *testing.T, method, path, body string) []byte {
	t.Helper()
	req, err := http.NewRequest(method, d.url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated) {
		t.Fatalf("%s %s: %s %v\n%s", method, path, resp.Status, err, data)
	}
	return data
}

// jobView is the part of a job record these tests read.
type jobView struct {
	ID, State, Worker string
	Requeues          int
	Result            json.RawMessage
}

// job decodes the JSON a request answers with.
func (d *daemon) job(t *testing.T, method, path, body string) jobView {
	t.Helper()
	var v jobView
	if err := json.Unmarshal(d.call(t, method, path, body), &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitDone polls a job until it is done.
func (d *daemon) waitDone(t *testing.T, id string) jobView {
	t.Helper()
	var v jobView
	waitFor(t, 10*time.Minute, id+" done", func() bool {
		if v = d.job(t, "GET", "/jobs/"+id, ""); v.State == "failed" || v.State == "cancelled" {
			t.Fatalf("job %s %s", id, v.State)
		}
		return v.State == "done"
	})
	return v
}

// metric reads one series from /metrics (0 if absent).
func (d *daemon) metric(t *testing.T, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(d.call(t, "GET", "/metrics", "")), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, _ := strconv.ParseFloat(v, 64)
			return f
		}
	}
	return 0
}

// findingKeys returns the sorted signature keys of a job's findings.
func (d *daemon) findingKeys(t *testing.T, id string) []string {
	t.Helper()
	var rep struct{ Entries []struct{ Key string } }
	if err := json.Unmarshal(d.call(t, "GET", "/jobs/"+id+"/findings", ""), &rep); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, e := range rep.Entries {
		keys = append(keys, e.Key)
	}
	slices.Sort(keys)
	return keys
}

// TestTriageStoreRoundTrip runs one job on a built daemon, drains it
// with SIGTERM and reads the job's triage store with the built triage
// tool: `triage report -json` is byte-identical to the daemon's
// findings endpoint before and after `triage compact`, the store
// deduplicated findings, and the job record kept its state.
func TestTriageStoreRoundTrip(t *testing.T) {
	t.Parallel()
	state := t.TempDir()
	d := startDaemon(t, "-state-dir", state)
	id := d.job(t, "POST", "/jobs", `{"seed_count": 4, "budget": 200, "seed": 3}`).ID
	d.waitDone(t, id)
	findings := string(d.call(t, "GET", "/jobs/"+id+"/findings", ""))
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	var rec jobView
	if data, err := os.ReadFile(filepath.Join(state, "jobs", id, "job.json")); err != nil || json.Unmarshal(data, &rec) != nil || rec.State != "done" {
		t.Errorf("job record after the drain: state %q, err %v", rec.State, err)
	}
	var rep struct{ Signatures, Occurrences int }
	if err := json.Unmarshal([]byte(findings), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Signatures == 0 || rep.Occurrences <= rep.Signatures {
		t.Errorf("%d occurrence(s) of %d signature(s): want some, deduplicated", rep.Occurrences, rep.Signatures)
	}
	store := filepath.Join(state, "jobs", id, "triage")
	head := fmt.Sprintf("triage report: %d signature(s), %d occurrence(s)", rep.Signatures, rep.Occurrences)
	if got := run(t, triageTool, "report", "-store", store); !strings.HasPrefix(got, head) {
		t.Errorf("text report starts %q, want %q", got[:min(len(got), len(head))], head)
	}
	if got := run(t, triageTool, "report", "-store", store, "-json"); got != findings {
		t.Errorf("triage report -json differs from the findings endpoint:\n%s\nvs\n%s", got, findings)
	}
	if got, want := run(t, triageTool, "compact", "-store", store), fmt.Sprintf("compacted %s: %d signature(s)\n", store, rep.Signatures); got != want {
		t.Errorf("compact printed %q, want %q", got, want)
	}
	if got := run(t, triageTool, "report", "-store", store, "-json"); got != findings {
		t.Errorf("compaction changed the report:\n%s\nvs\n%s", got, findings)
	}
}

// TestTriageMerge: `triage merge` folds two real stores, written by two
// campaigns that share some signatures, into a new one, and only reads
// its sources: their logs keep their bytes and no file joins them. A
// missing source fails the merge, naming its path, before the
// destination is created.
func TestTriageMerge(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	type report struct {
		Signatures, Occurrences int
		Entries                 []struct{ Key string }
	}
	keys := map[string]bool{}
	signatures, occurrences := 0, 0
	logs := map[string]string{}
	for _, src := range []struct{ name, seed string }{{"a", "1"}, {"b", "9"}} {
		runIn(t, dir, mopfuzzer, "-jdk", "openjdk-17", "-seeds", "3", "-budget", "150", "-seed", src.seed, "-triage-dir", src.name)
		var rep report
		if err := json.Unmarshal([]byte(run(t, triageTool, "report", "-store", filepath.Join(dir, src.name), "-json")), &rep); err != nil {
			t.Fatal(err)
		}
		for _, e := range rep.Entries {
			keys[e.Key] = true
		}
		signatures += rep.Signatures
		occurrences += rep.Occurrences
		logs[src.name] = string(mustReadFile(t, filepath.Join(dir, src.name, "findings.jsonl")))
	}
	if len(keys) == 0 || len(keys) == signatures {
		t.Fatalf("the sources hold %d signature(s), %d distinct: want some, and some shared", signatures, len(keys))
	}

	out := runIn(t, dir, triageTool, "merge", "-into", "dst", "a", "b")
	if want := fmt.Sprintf("store dst now holds %d signature(s) (%d added)\n", len(keys), len(keys)); !strings.HasSuffix(out, want) {
		t.Errorf("merge printed:\n%swant it to end %q", out, want)
	}
	var rep report
	if err := json.Unmarshal([]byte(run(t, triageTool, "report", "-store", filepath.Join(dir, "dst"), "-json")), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Signatures != len(keys) || rep.Occurrences != occurrences {
		t.Errorf("merged store: %d signature(s), %d occurrence(s), want %d and %d", rep.Signatures, rep.Occurrences, len(keys), occurrences)
	}
	for name, log := range logs {
		entries, err := os.ReadDir(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || string(mustReadFile(t, filepath.Join(dir, name, "findings.jsonl"))) != log {
			t.Errorf("source %s changed: holds %v", name, entries)
		}
	}

	missing := filepath.Join(dir, "missing")
	cmd := osexec.Command(triageTool, "merge", "-into", filepath.Join(dir, "dst2"), "a", missing)
	cmd.Dir = dir
	msg, err := cmd.CombinedOutput()
	var exit *osexec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(msg), missing) {
		t.Errorf("merge from a missing source: %v\n%s", err, msg)
	}
	if _, err := os.Stat(filepath.Join(dir, "dst2")); !os.IsNotExist(err) {
		t.Errorf("a failed merge created its destination: %v", err)
	}
}

func mustReadFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// testFleetWorkerSIGKILL SIGKILLs the fleet worker that owns a job once
// it has handed off a checkpoint: the lease expires, and the job
// requeues onto the other worker and finishes with the result and
// finding signatures of a standalone daemon.
func testFleetWorkerSIGKILL(t *testing.T) {
	const spec = `{"seed_count": 6, "budget": 800, "seed": 3}`
	standalone := startDaemon(t, "-state-dir", t.TempDir())
	want := standalone.waitDone(t, standalone.job(t, "POST", "/jobs", spec).ID)

	coord := startDaemon(t, "-mode", "coordinator", "-state-dir", t.TempDir(), "-lease-ttl", "3s")
	workers := map[string]*daemon{}
	for _, id := range []string{"w1", "w2"} {
		workers[id] = startDaemon(t, "-mode", "worker", "-worker-id", id, "-coordinator", coord.url, "-state-dir", t.TempDir())
	}
	waitFor(t, time.Minute, "two live workers", func() bool {
		return coord.metric(t, `mopfuzzd_fleet_workers{state="live"}`) == 2
	})
	v := coord.job(t, "POST", "/jobs", spec)
	waitFor(t, time.Minute, "a checkpoint handoff", func() bool {
		v = coord.job(t, "GET", "/jobs/"+v.ID, "")
		return v.State == "running" && v.Worker != "" && coord.metric(t, "mopfuzzd_fleet_checkpoint_handoffs_total") >= 1
	})
	if err := workers[v.Worker].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}

	got := coord.waitDone(t, v.ID)
	if got.Worker == v.Worker || got.Requeues < 1 {
		t.Errorf("job finished on %q after %d requeue(s), want the survivor of %s after >= 1", got.Worker, got.Requeues, v.Worker)
	}
	if string(got.Result) != string(want.Result) {
		t.Errorf("fleet result differs from the standalone run:\n%s\nvs\n%s", got.Result, want.Result)
	}
	if keys, wantKeys := coord.findingKeys(t, v.ID), standalone.findingKeys(t, want.ID); !slices.Equal(keys, wantKeys) {
		t.Errorf("fleet finding signatures %v, want the standalone run's %v", keys, wantKeys)
	}
	for _, series := range []string{"mopfuzzd_requeues_total", "mopfuzzd_fleet_leases_expired_total",
		`mopfuzzd_fleet_remote_jobs_total{outcome="requeued"}`} {
		if coord.metric(t, series) < 1 {
			t.Errorf("%s did not move", series)
		}
	}
}
