package monitor

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/spad"
)

// Preempt is the §IV-B context-switch teardown without the task's
// destruction: scrub, ID reassignment, register invalidation — but the
// task stays resident and reloadable.
func TestPreemptScrubsAndKeepsTaskResident(t *testing.T) {
	w := bootWorld(t)
	prog := testProgram(t)
	id, err := w.mon.submit(Call{Program: prog, Expected: prog.Measurement()})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.mon.load(id, []int{0}, 0, 64); err != nil {
		t.Fatal(err)
	}
	core, err := w.acc.Core(0)
	if err != nil {
		t.Fatal(err)
	}
	// The running secure task leaves bytes in its scratchpad lines.
	secret := []byte("live-partial-sums")
	if err := core.Scratchpad().Write(spad.SecureDomain, 5, secret[:core.Scratchpad().LineBytes()]); err != nil {
		t.Fatal(err)
	}

	if err := w.mon.preempt(id); err != nil {
		t.Fatal(err)
	}

	// Flush-on-switch: the line is invalid, the core is back in the
	// normal world, and every translation register is cleared.
	if core.Scratchpad().LineValid(5) {
		t.Fatal("secure line survived preemption")
	}
	if core.Domain() != spad.NonSecure {
		t.Fatalf("core domain = %d after preempt", core.Domain())
	}
	for i, r := range w.guarders[0].TransRegs() {
		if r.Valid {
			t.Fatalf("translation register %d still valid after preempt", i)
		}
	}
	buf := make([]byte, core.Scratchpad().LineBytes())
	if err := core.Scratchpad().Read(spad.NonSecure, 5, buf); err == nil && bytes.Contains(buf, secret[:4]) {
		t.Fatal("preempted task's bytes readable from the normal world")
	}

	// The task is requeued and reloadable without resubmission.
	task, ok := w.mon.tasks[id]
	if !ok {
		t.Fatal("task unknown to the monitor")
	}
	if task.Loaded {
		t.Fatal("task still marked loaded")
	}
	if w.mon.QueueLen() != 1 {
		t.Fatalf("queue len = %d, want 1 (requeued)", w.mon.QueueLen())
	}
	if err := w.mon.load(id, []int{1}, 0, 64); err != nil {
		t.Fatalf("reload after preempt: %v", err)
	}
	if err := w.mon.unload(id); err != nil {
		t.Fatal(err)
	}
}

func TestPreemptRejectsUnknownOrUnloaded(t *testing.T) {
	w := bootWorld(t)
	if err := w.mon.preempt(42); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("unknown task: %v", err)
	}
	prog := testProgram(t)
	id, err := w.mon.submit(Call{Program: prog, Expected: prog.Measurement()})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.mon.preempt(id); err == nil {
		t.Fatal("preempt of a never-loaded task accepted")
	}
	rep := w.mon.Dispatch(Call{Func: FnPreempt})
	if rep.Err == nil {
		t.Fatal("FnPreempt with no args accepted")
	}
}

// Unload, Preempt and Abort share one eviction: whichever ends a
// loaded task's residency, its cores end in the same state — back in
// the normal world, no translation register valid, and no secure line
// left in the task's scratchpad range or in the accumulator.
func TestEvictionEndStateSameForUnloadPreemptAbort(t *testing.T) {
	const from, to = 0, 64
	for _, fn := range []FuncID{FnUnload, FnPreempt, FnAbort} {
		t.Run(fn.String(), func(t *testing.T) {
			w := bootWorld(t)
			prog := testProgram(t)
			id, err := w.mon.submit(Call{Program: prog, Expected: prog.Measurement()})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.mon.load(id, []int{0}, from, to); err != nil {
				t.Fatal(err)
			}
			core, err := w.acc.Core(0)
			if err != nil {
				t.Fatal(err)
			}
			sp, acc := core.Scratchpad(), core.Accumulator()
			secret := []byte("tenant-partial-sums")
			for _, line := range []int{from, 5, to - 1} {
				if err := sp.Write(core.Domain(), line, secret); err != nil {
					t.Fatal(err)
				}
			}
			for _, line := range []int{0, 7, acc.Lines() - 1} {
				if err := acc.Write(core.Domain(), line, secret); err != nil {
					t.Fatal(err)
				}
			}

			if rep := w.mon.Dispatch(Call{Func: fn, Args: []uint64{uint64(id)}}); rep.Err != nil {
				t.Fatal(rep.Err)
			}

			if core.Domain() != spad.NonSecure {
				t.Errorf("core domain = %d", core.Domain())
			}
			for i, r := range w.guarders[0].TransRegs() {
				if r.Valid {
					t.Errorf("translation register %d still valid", i)
				}
			}
			for line := from; line < to; line++ {
				if sp.LineID(line) == spad.SecureDomain {
					t.Errorf("scratchpad line %d still secure", line)
				}
			}
			if n := acc.CountDomain(spad.SecureDomain); n != 0 {
				t.Errorf("%d accumulator lines still secure", n)
			}
		})
	}
}

// A task loads once. A second FnLoad of a loaded task is refused and
// leaves the task on its first cores, so the unload returns every core
// to the normal world with no translation register valid.
func TestLoadRefusesLoadedTask(t *testing.T) {
	w := bootWorld(t)
	prog := testProgram(t)
	id, err := w.mon.submit(Call{Program: prog, Expected: prog.Measurement()})
	if err != nil {
		t.Fatal(err)
	}
	load := func(core uint64) error {
		return w.mon.Dispatch(Call{Func: FnLoad, Args: []uint64{uint64(id), 0, 64, core}}).Err
	}
	if err := load(0); err != nil {
		t.Fatal(err)
	}
	if err := load(1); err == nil {
		t.Fatal("second load of a loaded task accepted")
	}
	if got := w.mon.tasks[id].Cores; len(got) != 1 || got[0] != 0 {
		t.Fatalf("task cores after the refused load = %v, want [0]", got)
	}
	if rep := w.mon.Dispatch(Call{Func: FnUnload, Args: []uint64{uint64(id)}}); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	for i, core := range w.acc.Cores() {
		if core.Domain() != spad.NonSecure {
			t.Errorf("core %d in domain %d after the unload", i, core.Domain())
		}
		for slot, r := range w.guarders[i].TransRegs() {
			if r.Valid {
				t.Errorf("core %d translation register %d still valid", i, slot)
			}
		}
	}
}
