// Command mopfuzzd is the fuzzing-as-a-service daemon: a job scheduler
// dispatching MOP-guided campaigns onto a bounded runner pool, an HTTP
// JSON API for submitting jobs and streaming findings, Prometheus-style
// live metrics, and graceful drain — SIGTERM stops accepting jobs,
// checkpoints running campaigns, flushes triage stores, and exits so a
// restart resumes every in-flight job from disk.
//
// Fleet modes scale it horizontally:
//
//	-mode coordinator  the full daemon plus the fleet endpoints
//	                   (/fleet/claim, /fleet/heartbeat, /fleet/complete);
//	                   queued jobs go to the workers that claim them,
//	                   under time-bounded leases, and fall back to the
//	                   local runner pool when no worker claims in time.
//	-mode worker       a campaign executor only: it claims one job at a
//	                   time from -coordinator, heartbeats checkpoint
//	                   handoffs, holds no job state of its own, and
//	                   serves only /healthz on -listen.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"repro/internal/exec"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/service"
)

func main() {
	listen := flag.String("listen", ":8080", "HTTP listen address")
	stateDir := flag.String("state-dir", "mopfuzzd-state", "persistent state directory (jobs, checkpoints, triage stores)")
	runners := flag.Int("runners", 1, "max concurrently running campaigns")
	var backend exec.Backend
	backend.RegisterFlags(flag.CommandLine)
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	execTimeout := flag.Duration("exec-timeout", 0, "wall-clock watchdog per seed task (0 = step fuel only)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "min executions between campaign checkpoints (<=0 = every task)")
	drainTimeout := flag.Duration("drain-timeout", 0, "bound on the drain phase at shutdown (0 = wait for checkpoints indefinitely)")

	mode := flag.String("mode", "", "fleet mode: empty (standalone), coordinator, or worker")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "coordinator: assignment lease duration")
	heartbeatEvery := flag.Duration("heartbeat-every", 0, "coordinator: worker heartbeat cadence (0 = lease-ttl/3)")
	coordinator := flag.String("coordinator", "", "worker: coordinator base URL (e.g. http://host:8080)")
	workerID := flag.String("worker-id", "", "worker: unique fleet ID (default: hostname:port of -listen)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mopfuzzd: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "mopfuzzd: ", log.LstdFlags)

	if *pprofAddr != "" {
		// The blank net/http/pprof import registers its handlers on the
		// default mux; serve it on its own listener so profiling never
		// shares the API surface.
		go func() {
			logger.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Printf("pprof server: %v", err)
			}
		}()
	}

	// SIGINT/SIGTERM cancels the context: the drain signal.
	ctx, stop := harness.ShutdownContext(context.Background())
	defer stop()

	switch *mode {
	case "worker":
		runWorker(ctx, logger, *listen, *drainTimeout, fleet.WorkerConfig{
			ID:          *workerID,
			Coordinator: *coordinator,
			Dir:         *stateDir,
			Exec:        backend,
			Logf:        logger.Printf,
		})
		return
	case "", "coordinator":
		// The full daemon below; coordinator mode adds the fleet layer.
	default:
		fmt.Fprintf(os.Stderr, "mopfuzzd: unknown -mode %q (want coordinator or worker)\n", *mode)
		os.Exit(2)
	}

	sched, err := service.NewScheduler(service.Config{
		Dir:             *stateDir,
		Runners:         *runners,
		Exec:            backend,
		ExecTimeout:     *execTimeout,
		CheckpointEvery: *checkpointEvery,
		Logf:            logger.Printf,
	})
	if err != nil {
		logger.Fatalf("open state dir %s: %v", *stateDir, err)
	}

	apiSrv := service.NewServer(sched)
	mux := http.NewServeMux()
	mux.Handle("/", apiSrv.Handler())
	if *mode == "coordinator" {
		coord := fleet.NewCoordinator(fleet.CoordinatorConfig{
			Sched:          sched,
			LeaseTTL:       *leaseTTL,
			HeartbeatEvery: *heartbeatEvery,
			Logf:           logger.Printf,
		})
		coord.Mount(mux)
		sched.SetRemote(coord)
		logger.Printf("fleet coordinator enabled (lease ttl %s)", *leaseTTL)
	}

	sched.Start(ctx)
	// Drain: every runner flushes a final campaign checkpoint and closes
	// its triage store before Wait returns; a restarted daemon re-queues
	// the interrupted jobs and resumes them from those checkpoints.
	serve(ctx, logger, *listen, mux, *drainTimeout, sched.Wait, drainLog{
		listening: fmt.Sprintf("listening on %s (state %s, %d runner(s), backend %s)", *listen, *stateDir, *runners, backend.Name),
		draining:  "shutdown signal: draining (no new jobs; checkpointing running campaigns)",
		drained:   "drain complete: all campaigns checkpointed, triage stores flushed",
		timedOut:  "exiting with campaigns still settling (checkpoints are crash-safe)",
	})
}

// drainLog holds one serve loop's log lines.
type drainLog struct {
	listening, draining, drained string
	// timedOut follows "drain timeout <d> elapsed: ".
	timedOut string
}

// serve serves handler on listen until ctx is cancelled (the drain
// signal), then waits for wait — bounded by drainTimeout, so a wedged
// campaign cannot hold the process hostage; the checkpoint machinery is
// crash-safe either way — and shuts the HTTP server down.
func serve(ctx context.Context, logger *log.Logger, listen string, handler http.Handler, drainTimeout time.Duration, wait func(), msg drainLog) {
	// Requests still open once the drain is over are long-held ones
	// (parked fleet claims, findings long-polls, event streams): ending
	// their contexts lets Shutdown return instead of waiting them out.
	reqCtx, endRequests := context.WithCancel(context.Background())
	srv := &http.Server{
		Addr:              listen,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return reqCtx },
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Print(msg.listening)

	select {
	case <-ctx.Done():
		logger.Print(msg.draining)
	case err := <-errc:
		logger.Fatalf("http server: %v", err)
	}

	if waitBounded(wait, drainTimeout) {
		logger.Print(msg.drained)
	} else {
		logger.Printf("drain timeout %s elapsed: %s", drainTimeout, msg.timedOut)
	}

	endRequests()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("http shutdown: %v", err)
	}
}

// waitBounded runs wait, giving up after d (0 = no bound). Reports
// whether wait finished.
func waitBounded(wait func(), d time.Duration) bool {
	if d <= 0 {
		wait()
		return true
	}
	done := make(chan struct{})
	go func() { wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// runWorker is the -mode worker main loop: it runs cfg's worker and
// serves its /healthz on listen, deriving the ID from the host name and
// listen port when cfg leaves it empty.
func runWorker(ctx context.Context, logger *log.Logger, listen string, drainTimeout time.Duration, cfg fleet.WorkerConfig) {
	if cfg.Coordinator == "" {
		fmt.Fprintln(os.Stderr, "mopfuzzd: -mode worker requires -coordinator")
		os.Exit(2)
	}
	if cfg.ID == "" {
		_, port, err := net.SplitHostPort(listen)
		host, herr := os.Hostname()
		if err = errors.Join(err, herr); err != nil {
			fmt.Fprintf(os.Stderr, "mopfuzzd: cannot derive -worker-id: %v\n", err)
			os.Exit(2)
		}
		cfg.ID = net.JoinHostPort(host, port)
	}

	worker, err := fleet.NewWorker(cfg)
	if err != nil {
		logger.Fatalf("worker: %v", err)
	}

	mux := http.NewServeMux()
	worker.Mount(mux)
	worker.Start(ctx)
	serve(ctx, logger, listen, mux, drainTimeout, worker.Wait, drainLog{
		listening: fmt.Sprintf("worker %s listening on %s (coordinator %s, scratch %s)", cfg.ID, listen, cfg.Coordinator, cfg.Dir),
		draining:  "shutdown signal: draining worker (running assignment completes as interrupted)",
		drained:   "worker drained",
		timedOut:  "exiting",
	})
}
