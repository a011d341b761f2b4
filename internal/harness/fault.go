// Package harness is the fault-isolated campaign execution engine. The
// paper's results come from long campaigns (24-hour comparisons, a
// three-month hunt) where the fuzzer must outlive every pathology its
// own mutants provoke; this package supplies the survival machinery:
// panic containment, wall-clock watchdogs, bounded retry, a quarantine
// store for pathological mutants, periodic checkpoints with resume, and
// graceful SIGINT/SIGTERM shutdown. It is substrate-agnostic — tasks
// are opaque closures — so the core fuzzing loop stays deterministic
// and the engine stays reusable.
package harness

import (
	"errors"
	"fmt"
	"strings"
)

// FaultClass is the campaign-level classification taxonomy. The first
// two classes come from the paper's oracles (the substrate reporting a
// seeded bug); the last three are produced by the harness itself when
// the substrate misbehaves as a Go program rather than as a simulated
// JVM. A mutant that panics or hangs the substrate is itself a
// crash-oracle finding, so faults are first-class artifacts.
type FaultClass string

// Fault classes.
const (
	// FaultCrash: the simulated JVM crashed (seeded crash bug fired).
	FaultCrash FaultClass = "crash"
	// FaultMiscompile: differential testing caught divergent output.
	FaultMiscompile FaultClass = "miscompile"
	// FaultTimeout: the wall-clock watchdog cancelled a hung execution
	// (distinct from the VM's step-fuel ErrTimeout, which the fuzzer
	// handles inline as a skipped mutant).
	FaultTimeout FaultClass = "timeout"
	// FaultHeapExhausted: an execution blew the VM heap-allocation
	// budget (vm.ErrHeapExhausted).
	FaultHeapExhausted FaultClass = "heap-exhausted"
	// FaultHarness: a Go panic escaped the substrate (vm/jit) and was
	// contained by the supervisor instead of killing the process.
	FaultHarness FaultClass = "harness-fault"
)

// Fault is one classified failure of a supervised task. It carries
// enough context to be a standalone bug report: the component blamed,
// the triggering source, the stack (for panics), and where the mutant
// was quarantined.
type Fault struct {
	Class     FaultClass `json:"class"`
	TaskID    string     `json:"task_id"`
	SeedName  string     `json:"seed_name,omitempty"`
	Round     int        `json:"round"`
	Component string     `json:"component,omitempty"` // jit, vm, bytecode, ... (from the panic stack)
	Message   string     `json:"message"`
	Stack     string     `json:"stack,omitempty"`
	Retries   int        `json:"retries"`
	// Source is the triggering mutant (or seed) program text; persisted
	// with the fault so the finding reproduces without the campaign RNG.
	Source         string `json:"source,omitempty"`
	QuarantinePath string `json:"quarantine_path,omitempty"`
}

// Error makes a Fault usable as an error value.
func (f *Fault) Error() string {
	return fmt.Sprintf("harness: %s in task %s: %s", f.Class, f.TaskID, f.Message)
}

// HsErrReport renders the fault like HotSpot's hs_err_pid log header,
// mirroring vm.Crash.HsErrReport, with the harness fault context
// (class, retries, quarantine path) included.
func (f *Fault) HsErrReport(vmName string) string {
	stack := ""
	if f.Stack != "" {
		first := f.Stack
		if i := strings.IndexByte(first, '\n'); i >= 0 {
			first = first[:i]
		}
		stack = fmt.Sprintf("\n#  Stack: %s", first)
	}
	return fmt.Sprintf(`#
# A fatal error has been detected by the fuzzing harness:
#
#  %s in component %s, task=%s (round %d)
#  %s%s
#
# Harness: fault class=%s, retries=%d, quarantine=%s
# VM: %s (simulated, supervised run)
#`, f.Class, f.orUnknown(), f.TaskID, f.Round, f.Message, stack,
		f.Class, f.Retries, f.orNone(), vmName)
}

func (f *Fault) orUnknown() string {
	if f.Component == "" {
		return "unknown"
	}
	return f.Component
}

func (f *Fault) orNone() string {
	if f.QuarantinePath == "" {
		return "<none>"
	}
	return f.QuarantinePath
}

// Faulter lets an error value carry a pre-classified harness fault
// across an API boundary. Execution backends use it for process-level
// containment: when an out-of-process child dies (panic, watchdog kill,
// signal), the backend returns an error implementing Faulter and the
// supervisor converts it into a first-class Fault — the same treatment
// an in-process panic gets from recover() — instead of recording an
// ordinary task error.
type Faulter interface {
	HarnessFault() *Fault
}

// AsFault extracts a pre-classified fault from anywhere in err's chain,
// or returns nil when the error is an ordinary one.
func AsFault(err error) *Fault {
	var f Faulter
	if errors.As(err, &f) {
		return f.HarnessFault()
	}
	return nil
}

// componentOrder fixes blame priority when several substrate packages
// appear in a panic stack: the deepest (most specific) component wins,
// which with Go stacks means the first occurrence top-down.
var componentPackages = []struct{ pkg, name string }{
	{"repro/internal/jit", "jit"},
	{"repro/internal/vm", "vm"},
	{"repro/internal/bytecode", "bytecode"},
	{"repro/internal/jvm", "jvm"},
	{"repro/internal/lang", "lang"},
	{"repro/internal/corpus", "corpus"},
	{"repro/internal/core", "core"},
}

// ComponentFromStack attributes a contained panic to the substrate
// package nearest the top of the stack (the innermost frame that is
// ours). Frames defined in _test.go files are skipped, so a test-only
// injected hook blames the substrate package that invoked it, matching
// what a production fault would report. Returns "" when no known
// package appears.
func ComponentFromStack(stack string) string {
	lines := strings.Split(stack, "\n")
	for i, ln := range lines {
		for _, c := range componentPackages {
			if !strings.Contains(ln, c.pkg+".") {
				continue
			}
			if i+1 < len(lines) && strings.Contains(lines[i+1], "_test.go") {
				continue
			}
			return c.name
		}
	}
	return ""
}
