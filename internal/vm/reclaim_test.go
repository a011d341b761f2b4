package vm

import (
	"testing"

	"repro/internal/bytecode"
)

// Each test here pins one root that reclaim takes beyond the
// collector's own: drop that root and a handle still in use is handed
// to a new cell, which the test sees.

// TestReclaimKeepsNewCell: a collection runs right after the
// allocation that started it, before any frame holds the new cell.
func TestReclaimKeepsNewCell(t *testing.T) {
	res := runCfg(t, `class T {
		int f;
		static T keep;
		static void main() {
			T.keep = new T();
			T.keep.f = 5;
			T a = new T();
			a.f = 7;
			T b = new T();
			b.f = 9;
			print(T.keep.f);
			print(a.f);
		}
	}`, Config{GCEvery: 1})
	wantOutput(t, res, "5", "7")
}

// allocatingCode is compiled code that allocates objects and drops
// them, collecting at each allocation when GCEvery is 1.
type allocatingCode struct{ m *Machine }

func (c allocatingCode) Invoke([]Value) (Value, error) {
	for i := 0; i < 3; i++ {
		c.m.NewObject("T")
	}
	return Value{}, nil
}

// allocatingJIT compiles every method to allocatingCode.
type allocatingJIT struct{}

func (allocatingJIT) Compile(_ *bytecode.Function, _ Tier, m *Machine) (CompiledMethod, error) {
	return allocatingCode{m}, nil
}

// TestReclaimKeepsHeldMonitor: the receiver of a synchronized method
// whose compiled code keeps no reference to it is reached only through
// its held monitor, which the method's exit releases after the
// collections its body ran.
func TestReclaimKeepsHeldMonitor(t *testing.T) {
	res := runCfg(t, `class T {
		int f;
		static void main() {
			new T().sync();
			print(1);
		}
		synchronized void sync() { this.f = 1; }
	}`, Config{GCEvery: 1, JIT: allocatingJIT{}, CompileEager: true, CompileOnly: "T.sync"})
	wantOutput(t, res, "1")
	if res.GCCycles != 4 || res.MonitorLeaks != 0 {
		t.Errorf("%d collections, %d leaked monitors; want 4, 0", res.GCCycles, res.MonitorLeaks)
	}
}

// TestReclaimKeepsStringsAndMonitors: string values, the string
// monitors and the class monitors keep their meaning across
// collections: no new cell gets the handle of a monitor cell.
func TestReclaimKeepsStringsAndMonitors(t *testing.T) {
	img := compileForBench(t, `class T {
		int f;
		static String s;
		static void main() {
			T.s = "lock";
			synchronized ("lock") { T.cls(); }
			for (int i = 0; i < 10; i += 1) { T t = new T(); t.f = i; }
			synchronized (T.s) { print(T.s); }
			print(T.s == "lock" ? 1 : 0);
			T.cls();
		}
		static synchronized void cls() { T t = new T(); t.f = 1; }
	}`)
	wantOutput(t, NewMachine(img, Config{GCEvery: 1}).Run(), "lock", "1")

	m := NewMachine(img, Config{GCEvery: 1})
	lock := m.strVal("lock")
	strMon, clsMon := m.monitorOf(lock), m.classMonitor("T")
	for _, v := range []Value{lock, refVal(KObj, clsMon)} {
		if err := m.MonitorEnter(v); err != nil {
			t.Fatal(err)
		}
		if err := m.MonitorExit(v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if o := m.NewObject("T").cell(); o == strMon || o == clsMon {
			t.Fatalf("allocation %d reused monitor cell %d", i, o)
		}
	}
	if m.Heap.GCCycles != 10 || m.format(lock) != "lock" || m.strVal("lock") != lock || m.monitorOf(lock) != strMon {
		t.Errorf("after %d collections the string reads %q as %v, monitor %d; want %v, monitor %d",
			m.Heap.GCCycles, m.format(lock), m.strVal("lock"), m.monitorOf(lock), lock, strMon)
	}
	if m.Heap.classOf(strMon) != "String" || m.Heap.classOf(clsMon) != "T$Class" {
		t.Errorf("monitor cells became %s and %s", m.Heap.classOf(strMon), m.Heap.classOf(clsMon))
	}
}
