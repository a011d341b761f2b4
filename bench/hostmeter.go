package main

import (
	"context"
	"errors"
	"math"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/exec"
	"repro/internal/jit"
	"repro/internal/jvm"
	"repro/internal/lang"
)

// The benchmark runs on shared virtual machines whose speed changes with
// the neighbours' load: the same campaign runs up to twice as slow for
// stretches of seconds to minutes, CPU time slows with it (no steal time
// is reported), and there are no hardware counters to count work instead.
// So a timed campaign also times a fixed reference slice every
// meterInterval, in its own process on the same CPU, and its time
// metrics are scaled by how much slower than nominal the host ran the
// slices meanwhile.
//
// The slice has two parts: a switch over a pseudo-random opcode stream,
// whose indirect branches the predictor keeps missing as in the VM's
// interpreter loop, and a branchy integer loop it predicts well. The host
// factor is the geometric mean of the two parts' slowdowns, each the
// median over the campaign's slices, so that a preemption landing in a
// few slices does not move it. Over twenty campaigns in a row, this pair
// followed the host better on every workload than either part alone or
// than a pointer chase through memory. The slices allocate nothing while
// the campaign runs. The slice and the nominal times must never change:
// they fix the scale of every time metric.

const (
	// meterInterval is the least time between two slices: the slices
	// take 2-4% of a campaign.
	meterInterval  = 50 * time.Millisecond
	dispatchRounds = 200000
	aluRounds      = 600000
	// maxSlices bounds the slices of one campaign (over three minutes,
	// past childTimeout).
	maxSlices = 4096
	// dispatchNominal and aluNominal are the parts' median times, in
	// seconds, on the 2-vCPU host the baseline was measured on, when it
	// ran fastest.
	dispatchNominal = 0.00080
	aluNominal      = 0.00100
)

// dispatchOps is the slice's opcode stream.
var dispatchOps = func() (ops [4096]byte) {
	x := uint64(88172645463325252)
	for i := range ops {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		ops[i] = byte(x & 7)
	}
	return ops
}()

// meterSink keeps the slices' results live.
var meterSink uint64

// hostMeter times reference slices while a campaign runs.
type hostMeter struct {
	mu       sync.Mutex
	last     time.Time
	spent    time.Duration // in slices, to be taken off the campaign's time
	dispatch []float64
	alu      []float64
}

func newHostMeter() *hostMeter {
	return &hostMeter{
		last:     time.Now(),
		dispatch: make([]float64, 0, maxSlices),
		alu:      make([]float64, 0, maxSlices),
	}
}

// tick times one slice unless one ran within meterInterval.
func (m *hostMeter) tick() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if time.Since(m.last) < meterInterval || len(m.alu) == maxSlices {
		return
	}
	t0 := time.Now()
	d := uint64(7)
	for i := 0; i < dispatchRounds; i++ {
		switch dispatchOps[i&4095] {
		case 0:
			d += uint64(i)
		case 1:
			d ^= d >> 7
		case 2:
			d *= 0x9E3779B97F4A7C15
		case 3:
			d -= uint64(i) << 3
		case 4:
			d = d<<1 | d>>63
		case 5:
			d += d >> 11
		case 6:
			d ^= uint64(i) * 31
		default:
			d++
		}
	}
	t1 := time.Now()
	a := d
	for i := uint64(0); i < aluRounds; i++ {
		switch i & 3 {
		case 0:
			a += i * 3
		case 1:
			a ^= a >> 3
		case 2:
			a = a*2862933555777941757 + 3037000493
		default:
			a -= i
		}
	}
	t2 := time.Now()
	meterSink += a
	m.dispatch = append(m.dispatch, t1.Sub(t0).Seconds())
	m.alu = append(m.alu, t2.Sub(t1).Seconds())
	m.spent += t2.Sub(t0)
	m.last = t2
}

// factor is how many times slower than nominal the host ran the slices,
// 1 when none ran.
func (m *hostMeter) factor() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.alu) == 0 {
		return 1
	}
	_, dispatch, _ := quartiles(m.dispatch)
	_, alu, _ := quartiles(m.alu)
	return math.Sqrt(dispatch / dispatchNominal * alu / aluNominal)
}

// meteredExecutor ticks the meter before every call into the executor,
// between executions.
type meteredExecutor struct {
	inner exec.Executor
	m     *hostMeter
}

func (e meteredExecutor) Execute(ctx context.Context, p *lang.Program, spec jvm.Spec, opt jvm.Options) (*jvm.ExecResult, error) {
	e.m.tick()
	return e.inner.Execute(ctx, p, spec, opt)
}

func (e meteredExecutor) ExecuteDifferential(ctx context.Context, p *lang.Program, specs []jvm.Spec, opt jvm.Options) (*jvm.Differential, error) {
	e.m.tick()
	return e.inner.ExecuteDifferential(ctx, p, specs, opt)
}

func (e meteredExecutor) ExecutePlanDifferential(ctx context.Context, p *lang.Program, spec jvm.Spec, plans []*jit.Plan, opt jvm.Options) (*jvm.Differential, error) {
	e.m.tick()
	return e.inner.ExecutePlanDifferential(ctx, p, spec, plans, opt)
}

// pinToOneCPU binds every thread of this process to the last CPU it may
// run on. Threads and processes started later inherit the binding, so
// each campaign process, its pool child and the meter's slices share one
// CPU and one host slowdown.
func pinToOneCPU() error {
	var mask [16]uint64 // 1024 CPUs
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return e
	}
	cpu := -1
	for i := range len(mask) * 64 {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return errors.New("empty CPU affinity mask")
	}
	var one [16]uint64
	one[cpu/64] = 1 << (cpu % 64)
	// A second pass catches a thread an unbound one started meanwhile.
	for range 2 {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 && e != syscall.ESRCH {
				return e
			}
		}
	}
	return nil
}
