// Command bench is the repository's campaign benchmark. Each workload
// runs closed-loop fuzzing campaigns (one client, Workers: 1, a fixed
// execution budget per campaign), each in a fresh child process of this
// binary, for about -seconds; it prints every end-to-end metric with its
// unit, sample count, median and quartiles over the campaigns, checks the
// results, and ends with one JSON line:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {"execs_per_sec": {"value": 31.2, "unit": "1/s"}, ...}}
//
// With -trace 1 every campaign also runs traced and the JSON carries the
// per-layer metrics instead. Run it from the repository root:
//
//	bash bench/run.sh --workload heavy --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh                        # every workload, in turn
//
// run.sh builds this program and minijvm (the pool workload's child) into
// .bench_build/; `MINIJVM=path go -C bench run .` works as well.
//
// See README.md for the workloads, the metrics and the trace format.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// options are the benchmark's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	state    string
	traceDir string
	minijvm  string
	// budget, when non-zero, replaces every workload's campaign budget
	// (the tests run the same code path at a tiny budget).
	budget int
}

const (
	// minCampaigns is the fewest timed campaigns a run measures, however
	// long they take, so every median has quartiles around it.
	minCampaigns = 3
	// childTimeout bounds one campaign process.
	childTimeout = 150 * time.Second
)

func main() {
	var o options
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	flag.StringVar(&o.workload, "workload", "all", "workload: "+strings.Join(names, ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "run seed; every campaign's corpus and RNG seeds derive from it")
	flag.IntVar(&o.seconds, "seconds", 20, "seconds of campaigns to measure per workload")
	flag.IntVar(&o.trace, "trace", 0, "1 also runs every campaign traced and reports the per-layer metrics")
	flag.StringVar(&o.state, "state", filepath.Join(".bench_build", "state"), "directory for campaign state: checkpoints, triage stores, score caches")
	flag.StringVar(&o.traceDir, "trace-dir", "", "directory traced campaigns write their spans to (default <state>/trace)")
	flag.StringVar(&o.minijvm, "minijvm", os.Getenv("MINIJVM"), "minijvm binary for the pool workload (default $MINIJVM)")
	child := flag.String("child", "", "run the one campaign this JSON spec describes and print its result (the benchmark's own child processes)")
	spreadDir := flag.String("spread", "", "print the spread across runs of the result lines in <dir>/<workload>.jsonl, then exit")
	flag.Parse()

	if *child != "" {
		os.Exit(childMain(*child))
	}
	if *spreadDir != "" {
		if err := spreadReport(os.Stdout, *spreadDir); err != nil {
			fatal(err)
		}
		return
	}
	if o.trace != 0 && o.trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	if o.traceDir == "" {
		o.traceDir = filepath.Join(o.state, "trace")
	}
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: campaigns not bound to one CPU:", err)
	}
	var selected []workload
	if o.workload == "all" {
		selected = workloads
	} else if w, ok := workloadByName(o.workload); ok {
		selected = []workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q (want %s, or all)", o.workload, strings.Join(names, ", ")))
	}

	out := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		run, err := runWorkload(w, o)
		if err != nil {
			fatal(err)
		}
		prefix := ""
		if len(selected) > 1 {
			prefix = w.Name + "/"
		}
		for name, v := range run.report(os.Stdout, o) {
			out.Metrics[prefix+name] = v
		}
		out.Correct = out.Correct && len(run.problems) == 0
		out.Attempted += run.attempted
		out.Failed += run.failed
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fatal(err)
	}
	if !out.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// canonicalSeed is the corpus and RNG seed of every timed campaign: the
// mopfuzzer CLI's defaults. A campaign's cost per execution depends
// heavily on its random stream (long mutation chains grow programs; a
// crash ends a chain early), so campaigns on other seeds differ by 2-10x
// in execs/s at these budgets. Timed campaigns therefore repeat one
// input, and the run seed picks the inputs of the correctness campaigns.
const canonicalSeed = 1

func (o *options) budgetFor(w workload) int {
	if o.budget > 0 {
		return o.budget
	}
	return w.Budget
}

func (o *options) spec(w workload, seed int64, budget int) campaignSpec {
	return campaignSpec{
		Workload:   w.Name,
		CorpusSeed: seed,
		Seed:       seed,
		Budget:     budget,
		Minijvm:    o.minijvm,
		StateDir:   o.state,
	}
}

// workloadRun is one workload's measurements in this run.
type workloadRun struct {
	w         workload
	timed     []*campaignResult // untraced campaigns: the end-to-end metrics
	traced    []*campaignResult // their traced twins (-trace 1)
	layers    *layerData
	attempted int
	failed    int
	problems  []string // failed correctness gates
}

func (r *workloadRun) add(res *campaignResult) {
	r.attempted += res.Tasks
	r.failed += res.Failed
	if res.Failed > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d task(s) faulted or were rejected", res.Failed))
	}
}

func (r *workloadRun) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// runWorkload repeats w's canonical campaign until o.seconds have passed
// (at least minCampaigns times, or once per traced pair), requiring the
// same result digest from every repeat and from its traced twin. Then it
// runs a quarter-budget campaign on the run seed's inputs on w and on w's
// partner workload, and requires the two digests to agree.
func runWorkload(w workload, o options) (*workloadRun, error) {
	r := &workloadRun{w: w, layers: newLayerData()}
	spec := o.spec(w, canonicalSeed, o.budgetFor(w))
	start := time.Now()
	for k := 0; ; k++ {
		began := time.Now()
		res, err := runChild(spec)
		if err != nil {
			return nil, err
		}
		r.add(res)
		r.timed = append(r.timed, res)
		r.check(res.Digest == r.timed[0].Digest, "campaign %d digest %s differs from campaign 0's %s", k, res.Digest, r.timed[0].Digest)
		if o.trace == 1 {
			ts := spec
			ts.Trace = true
			ts.TraceFile = filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d-%d.jsonl", w.Name, o.seed, k))
			tres, err := runChild(ts)
			if err != nil {
				return nil, err
			}
			r.add(tres)
			r.traced = append(r.traced, tres)
			r.layers.merge(tres.Layers)
			r.check(tres.Digest == res.Digest, "traced campaign %d digest %s differs from untraced %s", k, tres.Digest, res.Digest)
		}
		elapsed, last := time.Since(start), time.Since(began)
		enough := len(r.timed) >= minCampaigns || o.trace == 1
		if enough && elapsed+last > time.Duration(o.seconds)*time.Second {
			break
		}
	}

	budget := max(1, o.budgetFor(w)/4)
	p, _ := workloadByName(w.partner())
	var digests []string
	for _, v := range []workload{w, p} {
		res, err := runChild(o.spec(v, o.seed, budget))
		if err != nil {
			return nil, err
		}
		r.add(res)
		digests = append(digests, res.Digest)
	}
	r.check(digests[0] == digests[1], "on seed %d, %s's digest %s differs from %s's %s",
		o.seed, w.Name, digests[0], p.Name, digests[1])
	return r, nil
}

// runChild runs one campaign in a fresh process of this binary and waits
// for it to exit.
func runChild(spec campaignSpec) (*campaignResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	spec.StartNanos = time.Now().UnixNano()
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := osexec.CommandContext(ctx, self, "-child", string(arg))
	// One thread runs Go code in the campaign and in its pool child: the
	// work is serial anyway, and the garbage collector then cannot borrow
	// a second CPU whose speed depends on the host's other tenants.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s campaign (corpus seed %d, seed %d): %w", spec.Workload, spec.CorpusSeed, spec.Seed, err)
	}
	var res campaignResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%s campaign result: %w", spec.Workload, err)
	}
	if res.Executions == 0 || res.CampaignSec <= 0 {
		return nil, fmt.Errorf("%s campaign (corpus seed %d, seed %d) ran no executions", spec.Workload, spec.CorpusSeed, spec.Seed)
	}
	return &res, nil
}

// childMain is a child process: run the campaign, print its result.
func childMain(arg string) int {
	var spec campaignSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench: child spec:", err)
		return 2
	}
	res, err := runCampaign(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// throughput is executions per second pooled over campaigns, unscaled.
func throughput(rs []*campaignResult) float64 {
	var n, s float64
	for _, r := range rs {
		n += float64(r.Executions)
		s += r.campaignSec()
	}
	return ratio(n, s)
}

// report prints the run's metrics and returns those the final line
// carries: the end-to-end metrics untraced, the per-layer ones traced.
func (r *workloadRun) report(w io.Writer, o options) map[string]metricValue {
	out := map[string]metricValue{}
	fmt.Fprintf(w, "workload %s, seed %d: %d timed campaign(s) of %d executions budget, %d traced\n",
		r.w.Name, o.seed, len(r.timed), o.budgetFor(r.w), len(r.traced))
	raw, host := make([]float64, len(r.timed)), make([]float64, len(r.timed))
	for i, c := range r.timed {
		raw[i], host[i] = float64(c.Executions)/c.campaignSec(), c.HostFactor
	}
	fmt.Fprintln(w, "  unscaled, and the host factor the time metrics below are scaled by:")
	spreadRow(w, "execs/s unscaled", "1/s", raw, 0)
	spreadRow(w, "host factor", "x", host, 0)
	for _, m := range endToEnd {
		vs := make([]float64, len(r.timed))
		for i, c := range r.timed {
			vs[i] = m.value(c)
		}
		spreadRow(w, m.Name, m.Unit, vs, m.Bound)
		if o.trace == 0 {
			_, med, _ := quartiles(vs)
			out[m.Name] = metricValue{med, m.Unit}
		}
	}
	if o.trace == 1 {
		agg := &layerAgg{d: r.layers, untracedEPS: throughput(r.timed), tracedEPS: throughput(r.traced)}
		fmt.Fprintf(w, "  per layer, %d traced campaign(s), %d replayed executions:\n", len(r.traced), int(r.layers.Counts["replay.executions"]))
		for _, l := range perLayer {
			v := l.value(agg)
			fmt.Fprintf(w, "  %-32s %14.4f %-8s moves %s\n", l.Name, v, l.Unit, l.Moves)
			out[l.Name] = metricValue{v, l.Unit}
		}
		tasks := r.layers.Samples["core.task_ms"]
		if p90, ok := percentile(tasks, 0.9); ok {
			fmt.Fprintf(w, "  %-32s %14.4f %-8s moves %s\n", "core.task_ms_p90", p90, "ms", movesLight)
		} else {
			fmt.Fprintf(w, "  %-32s %14s %-8s (needs 100 tasks, have %d)\n", "core.task_ms_p90", "n/a", "ms", len(tasks))
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	return out
}

// spreadReport reads result lines, one run each, from <dir>/<workload>.jsonl
// and prints each metric's median and quartiles across the runs, marking
// as unstable an end-to-end metric whose interquartile range exceeds its
// bound. Its last line is the medians as JSON.
func spreadReport(w io.Writer, dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no <workload>.jsonl files in %s", dir)
	}
	bounds := map[string]float64{}
	for _, m := range endToEnd {
		bounds[m.Name] = m.Bound
	}
	medians := map[string]map[string]float64{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(filepath.Base(f), ".jsonl")
		values, units := map[string][]float64{}, map[string]string{}
		runs := 0
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var res result
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return fmt.Errorf("%s: %w", f, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s: a run failed its correctness checks", f)
			}
			runs++
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
				units[k] = v.Unit
			}
		}
		fmt.Fprintf(w, "workload %s: %d run(s)\n", name, runs)
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		medians[name] = map[string]float64{}
		for _, k := range keys {
			spreadRow(w, k, units[k], values[k], bounds[k])
			_, med, _ := quartiles(values[k])
			medians[name][k] = med
		}
	}
	return json.NewEncoder(w).Encode(medians)
}
