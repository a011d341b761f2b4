// Package exec is the pluggable execution-backend layer: everything
// that runs a program on a simulated JVM goes through an Executor, so
// the fuzzer, campaign engine, differential oracle, and reducer no
// longer care whether the target lives in this address space or in a
// child process. Two backends ship:
//
//   - InProcess wraps jvm.Run / jvm.RunDifferential directly. It is the
//     zero-configuration default and is byte-identical to calling the
//     jvm package, so every experiment table and determinism test pins
//     it.
//   - Pool sends executions to `minijvm -exec-serve` children in
//     batches, giving OS-level fault isolation: a panic, hang, or
//     runaway allocation in the substrate kills only the child, and the
//     death is classified into the harness.FaultClass taxonomy. Children
//     stay warm across batches; a recycle budget of 1 is spawn-per-exec.
//
// The split mirrors the paper's setup — MopFuzzer drives external JVM
// processes whose deaths ARE the crash oracle — and is the seam for the
// roadmap's sharded/remote backends and real-JVM adapters.
package exec

import (
	"context"
	"errors"
	"fmt"
	"os"
	osexec "os/exec"
	"strings"
	"time"

	"repro/internal/jit"
	"repro/internal/jvm"
	"repro/internal/lang"
)

// Executor runs programs on simulated JVM targets. Implementations must
// be safe for concurrent use: the parallel campaign engine calls Execute
// from several workers.
type Executor interface {
	// Execute runs p on one spec. Program-level errors (unparseable,
	// ill-typed) return an error; JVM-level outcomes (crash, exception,
	// timeout, heap exhaustion) are inside the ExecResult. Backend-level
	// failures — the target process dying — return an error carrying a
	// harness.Faulter so the supervisor can classify them.
	Execute(ctx context.Context, p *lang.Program, spec jvm.Spec, opt jvm.Options) (*jvm.ExecResult, error)
	// ExecuteDifferential runs p on every spec and groups the outputs —
	// the paper's miscompilation oracle.
	ExecuteDifferential(ctx context.Context, p *lang.Program, specs []jvm.Spec, opt jvm.Options) (*jvm.Differential, error)
	// ExecutePlanDifferential runs p on ONE spec under every plan (nil =
	// the default plan) and groups the outputs — the plan-vs-plan oracle:
	// any divergence is ordering/phase sensitivity in that spec, since
	// program and spec are held fixed. opt.Plan is ignored; the plans
	// slice governs.
	ExecutePlanDifferential(ctx context.Context, p *lang.Program, spec jvm.Spec, plans []*jit.Plan, opt jvm.Options) (*jvm.Differential, error)
}

// InProcess executes on the simulated JVM inside this address space —
// the deterministic default. The context is advisory: in-process runs
// are bounded by the VM's step and heap fuel, and wall-clock containment
// is the harness watchdog's job, so Execute deliberately performs no
// cancellation checks (keeping results byte-identical to jvm.Run).
type InProcess struct{}

// Execute implements Executor via jvm.Run.
func (InProcess) Execute(_ context.Context, p *lang.Program, spec jvm.Spec, opt jvm.Options) (*jvm.ExecResult, error) {
	return jvm.Run(p, spec, opt)
}

// ExecuteDifferential implements Executor via jvm.RunDifferential.
func (InProcess) ExecuteDifferential(_ context.Context, p *lang.Program, specs []jvm.Spec, opt jvm.Options) (*jvm.Differential, error) {
	return jvm.RunDifferential(p, specs, opt)
}

// ExecutePlanDifferential implements Executor via jvm.RunPlanDifferential.
func (InProcess) ExecutePlanDifferential(_ context.Context, p *lang.Program, spec jvm.Spec, plans []*jit.Plan, opt jvm.Options) (*jvm.Differential, error) {
	return jvm.RunPlanDifferential(p, spec, plans, opt)
}

// Backends lists the recognized -backend names ("" is the in-process
// default).
func Backends() []string { return []string{"inprocess", "pool"} }

// CheckBackend validates a backend name ("" counts: it inherits the
// caller's default). Shared by every layer that accepts a backend
// choice — the CLI flags, the service JobSpec and distill request, and
// the fleet worker config. The retired spawn-per-exec backend gets an
// error naming its replacement.
func CheckBackend(name string) error {
	switch name {
	case "", "inprocess", "pool":
		return nil
	case "subprocess":
		return errors.New(`backend "subprocess" was removed: use "pool" with a recycle budget of 1 (-backend pool -pool-recycle-after 1) for one child per execution`)
	}
	return fmt.Errorf("unknown backend %q (want %s)", name, strings.Join(Backends(), " or "))
}

// Default is the executor used when none is configured.
var Default Executor = InProcess{}

// Or returns ex when non-nil and the in-process default otherwise — the
// idiom every layer with an optional Executor field uses.
func Or(ex Executor) Executor {
	if ex != nil {
		return ex
	}
	return Default
}

// CloseExecutor releases a backend's resources when it holds any — the
// warm pool's children, for now. Safe on nil and on backends with
// nothing to release.
func CloseExecutor(ex Executor) {
	type closer interface{ Close() error }
	if c, ok := ex.(closer); ok {
		c.Close()
	}
}

// FindMinijvm resolves the minijvm binary: an explicit path wins, then
// the MINIJVM environment variable, then $PATH lookup.
func FindMinijvm(explicit string) (string, error) {
	if explicit != "" {
		if _, err := os.Stat(explicit); err != nil {
			return "", fmt.Errorf("exec: minijvm binary: %w", err)
		}
		return explicit, nil
	}
	if p := os.Getenv("MINIJVM"); p != "" {
		if _, err := os.Stat(p); err != nil {
			return "", fmt.Errorf("exec: $MINIJVM: %w", err)
		}
		return p, nil
	}
	p, err := osexec.LookPath("minijvm")
	if err != nil {
		return "", fmt.Errorf("exec: minijvm not found (build it with `go build ./cmd/minijvm` and pass -minijvm or set $MINIJVM): %w", err)
	}
	return p, nil
}

// PoolTuning is the optional pool-shape subset of the CLI surface:
// zero values keep PoolConfig defaults.
type PoolTuning struct {
	Children          int
	RecycleAfter      int64
	MaxChildHeapBytes uint64
}

// FromFlags resolves the shared -backend/-minijvm/-child-timeout CLI
// surface: "" or "inprocess" selects the nil (in-process, byte-identical
// default) executor; "pool" locates the minijvm binary and builds the
// child pool, shaped by tuning (zero values keep the defaults). Callers
// should CloseExecutor the result when done so pooled children don't
// outlive the campaign.
func FromFlags(backend, minijvmPath string, childTimeout time.Duration, tuning PoolTuning) (Executor, error) {
	if err := CheckBackend(backend); err != nil {
		return nil, err
	}
	if backend != "pool" {
		return nil, nil
	}
	path, err := FindMinijvm(minijvmPath)
	if err != nil {
		return nil, err
	}
	return NewPool(PoolConfig{
		Path:              path,
		Timeout:           childTimeout,
		Children:          tuning.Children,
		RecycleAfter:      tuning.RecycleAfter,
		MaxChildHeapBytes: tuning.MaxChildHeapBytes,
	}), nil
}
