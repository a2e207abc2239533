package monitor

import (
	"errors"
	"testing"

	"repro/internal/isolator"
	"repro/internal/sim"
	"repro/internal/spad"
)

// Every malformed function ID, the unassigned ID 6 included, must land
// in the fail-closed default arm, not in some adjacent handler.
func TestTrampolineRejectsMalformedFuncIDs(t *testing.T) {
	w := bootWorld(t)
	for _, f := range []FuncID{0, 6, FnKVAlloc + 1, FuncID(0xffff_ffff)} {
		rep := w.mon.Dispatch(Call{Func: f, Args: []uint64{1, 2, 3, 4, 5}})
		if !errors.Is(rep.Err, ErrBadFunc) {
			t.Fatalf("func %d: err = %v, want ErrBadFunc", uint32(f), rep.Err)
		}
		if rep.Value != 0 {
			t.Fatalf("func %d returned a value: %d", uint32(f), rep.Value)
		}
	}
	if w.mon.QueueLen() != 0 {
		t.Fatal("malformed calls queued a task")
	}
}

// Every malformed call — an unknown function ID or too few Args for a
// known one — counts exactly one monitor.rejected, as a refusal from
// inside a handler does.
func TestMalformedDispatchCountsOneRejection(t *testing.T) {
	w := bootWorld(t)
	for _, c := range []Call{
		{Func: 6},
		{Func: FnKVAlloc + 1, Args: []uint64{1, 2, 3, 4, 5}},
		{Func: FnLoad, Args: []uint64{1}},
		{Func: FnUnload},
		{Func: FnAbort},
		{Func: FnPreempt},
		{Func: FnKVAlloc, Args: []uint64{1, 0, 1}},
		{Func: FnMapNonSecure, Args: []uint64{0, 1, 2, 3}},
		{Func: FnAbort, Args: []uint64{999}}, // well-formed, unknown task
	} {
		before := w.stats.Get(sim.CtrMonitorRejected)
		if rep := w.mon.Dispatch(c); rep.Err == nil {
			t.Fatalf("%v %v accepted", c.Func, c.Args)
		}
		if got := w.stats.Get(sim.CtrMonitorRejected) - before; got != 1 {
			t.Fatalf("%v %v: %d rejections counted, want 1", c.Func, c.Args, got)
		}
	}
}

// Every trampoline entry counts exactly one monitor.calls, whatever it
// asks for and whether or not it is well-formed, so monitor.rejected
// can never exceed monitor.calls.
func TestDispatchCountsEveryCallOnce(t *testing.T) {
	w := bootWorld(t)
	for _, c := range []Call{
		{Func: 6},
		{Func: FnLoad, Args: []uint64{1}},
		{Func: FnQueueLen},
	} {
		before := w.stats.Get(sim.CtrMonitorCalls)
		w.mon.Dispatch(c)
		if got := w.stats.Get(sim.CtrMonitorCalls) - before; got != 1 {
			t.Fatalf("%v %v: %d calls counted, want 1", c.Func, c.Args, got)
		}
	}
	if calls, rejected := w.stats.Get(sim.CtrMonitorCalls), w.stats.Get(sim.CtrMonitorRejected); rejected > calls {
		t.Fatalf("monitor.rejected %d exceeds monitor.calls %d", rejected, calls)
	}
}

// An abort arriving mid-protocol (task loaded, nothing unloaded yet)
// must tear every piece of secure state down: scratchpad lines
// scrubbed, core back to non-secure, Guarder cleared, model and chunk
// zeroed, task forgotten.
func TestTrampolineAbortMidProtocolLeavesNoSecureState(t *testing.T) {
	w := bootWorld(t)
	prog := testProgram(t)
	id := submitSpec(t, w, prog, isolator.Topology{W: 1, H: 1})
	if rep := w.mon.Dispatch(Call{Func: FnLoad, Args: []uint64{uint64(id), 0, 1024, 0}}); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	task, ok := w.mon.tasks[id]
	if !ok {
		t.Fatal("task unknown to the monitor")
	}
	chunk, chunkSize := task.Chunk, task.ChunkSize
	// Plant a sentinel in the secure chunk so the zeroing is observable.
	w.machine.Phys().Write(chunk, []byte("secret working set"))
	core, _ := w.acc.Core(0)
	if core.Domain() != spad.SecureDomain {
		t.Fatal("precondition: core not secure after load")
	}

	if rep := w.mon.Dispatch(Call{Func: FnAbort, Args: []uint64{uint64(id)}}); rep.Err != nil {
		t.Fatal(rep.Err)
	}

	if core.Domain() != spad.NonSecure {
		t.Fatal("abort left the core in the secure domain")
	}
	if n := core.Scratchpad().CountDomain(spad.SecureDomain); n != 0 {
		t.Fatalf("abort left %d secure scratchpad lines", n)
	}
	if n := core.Accumulator().CountDomain(spad.SecureDomain); n != 0 {
		t.Fatalf("abort left %d secure accumulator lines", n)
	}
	for _, reg := range w.guarders[0].TransRegs() {
		if reg.Valid {
			t.Fatalf("abort left a valid translation register: %+v", reg)
		}
	}
	buf := make([]byte, chunkSize)
	w.machine.Phys().Read(chunk, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("abort left chunk byte %d = %#x", i, b)
		}
	}
	if w.mon.HasTask(id) {
		t.Fatal("aborted task still known")
	}
	if _, err := w.mon.ModelBytes(w.machine.SecureContext(), id); err == nil {
		t.Fatal("aborted task's model still readable")
	}
	if w.stats.Get(sim.CtrMonitorAborts) != 1 {
		t.Fatalf("aborts counted = %d", w.stats.Get(sim.CtrMonitorAborts))
	}
	// Double abort and abort-of-unknown fail closed.
	if rep := w.mon.Dispatch(Call{Func: FnAbort, Args: []uint64{uint64(id)}}); !errors.Is(rep.Err, ErrUnknownTask) {
		t.Fatalf("double abort: %v", rep.Err)
	}
	if rep := w.mon.Dispatch(Call{Func: FnAbort}); rep.Err == nil {
		t.Fatal("abort without args accepted")
	}
}

// Aborting a queued (never loaded) task frees its chunk and model
// without touching any core.
func TestAbortQueuedTask(t *testing.T) {
	w := bootWorld(t)
	id := submitSpec(t, w, testProgram(t), isolator.Topology{W: 1, H: 1})
	if w.mon.QueueLen() != 1 {
		t.Fatal("task not queued")
	}
	if err := w.mon.abort(id); err != nil {
		t.Fatal(err)
	}
	if w.mon.QueueLen() != 0 {
		t.Fatal("aborted task still queued")
	}
	if w.mon.HasTask(id) {
		t.Fatal("aborted task still known")
	}
}
