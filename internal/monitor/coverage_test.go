package monitor

// Tests for the state-transition coverage bitmap: every trampoline
// call must land exactly its (function, outcome) bit, the semantic
// Tr* bits must follow the task state machine, and the bitmap must be
// passive — observing it changes no monitor behavior and no cycle.

import (
	"testing"

	"repro/internal/mem"
)

func hasBit(m *Monitor, bit uint) bool { return m.TransitionBitmap()&(1<<bit) != 0 }

func TestTransitionBitmapDispatchOutcomes(t *testing.T) {
	w := bootWorld(t)
	if got := w.mon.TransitionBitmap(); got != 0 {
		t.Fatalf("fresh monitor bitmap = %#x, want 0", got)
	}

	// FnQueueLen succeeds: ok bit for FnQueueLen, nothing else in 0..15.
	if rep := w.mon.Dispatch(Call{Func: FnQueueLen}); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	okBit := uint(2 * (FnQueueLen - FnSubmit))
	if !hasBit(w.mon, okBit) {
		t.Fatalf("queue-len ok bit %d not set: %#x", okBit, w.mon.TransitionBitmap())
	}
	if hasBit(w.mon, okBit+1) {
		t.Fatalf("queue-len err bit set on a successful call")
	}

	// FnAbort of an unknown task errors: err bit for FnAbort.
	if rep := w.mon.Dispatch(Call{Func: FnAbort, Args: []uint64{999}}); rep.Err == nil {
		t.Fatal("abort of unknown task succeeded")
	}
	errBit := uint(2*(FnAbort-FnSubmit)) + 1
	if !hasBit(w.mon, errBit) {
		t.Fatalf("abort err bit %d not set: %#x", errBit, w.mon.TransitionBitmap())
	}

	// An unknown FuncID lands no dispatch bit (it is outside the table).
	before := w.mon.TransitionBitmap()
	if rep := w.mon.Dispatch(Call{Func: FuncID(200)}); rep.Err == nil {
		t.Fatal("unknown func succeeded")
	}
	if got := w.mon.TransitionBitmap(); got != before {
		t.Fatalf("unknown func changed bitmap %#x -> %#x", before, got)
	}
}

func TestTransitionBitmapTaskLifecycle(t *testing.T) {
	w := bootWorld(t)
	prog := testProgram(t)
	id, err := w.mon.submit(Call{Program: prog, Expected: prog.Measurement()})
	if err != nil {
		t.Fatal(err)
	}
	if !hasBit(w.mon, TrSubmitVerified) {
		t.Fatalf("submit did not set TrSubmitVerified: %#x", w.mon.TransitionBitmap())
	}

	// Preempt before load is refused.
	if err := w.mon.preempt(id); err == nil {
		t.Fatal("preempt of unloaded task succeeded")
	}
	if !hasBit(w.mon, TrPreemptRefused) || hasBit(w.mon, TrPreemptLoaded) {
		t.Fatalf("preempt-refused bits wrong: %#x", w.mon.TransitionBitmap())
	}

	if err := w.mon.load(id, []int{0}, 0, 8); err != nil {
		t.Fatal(err)
	}
	if !hasBit(w.mon, TrLoadOK) {
		t.Fatalf("load did not set TrLoadOK: %#x", w.mon.TransitionBitmap())
	}
	if err := w.mon.preempt(id); err != nil {
		t.Fatal(err)
	}
	if !hasBit(w.mon, TrPreemptLoaded) {
		t.Fatalf("preempt did not set TrPreemptLoaded: %#x", w.mon.TransitionBitmap())
	}

	// Abort of the (now queued again) task is the queued-abort bit.
	if err := w.mon.abort(id); err != nil {
		t.Fatal(err)
	}
	if !hasBit(w.mon, TrAbortQueued) || hasBit(w.mon, TrAbortLoaded) {
		t.Fatalf("abort-queued bits wrong: %#x", w.mon.TransitionBitmap())
	}

	// A fresh task aborted while loaded lands the loaded-abort bit.
	id2, err := w.mon.submit(Call{Program: prog, Expected: prog.Measurement()})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.mon.load(id2, []int{0}, 0, 8); err != nil {
		t.Fatal(err)
	}
	if err := w.mon.abort(id2); err != nil {
		t.Fatal(err)
	}
	if !hasBit(w.mon, TrAbortLoaded) {
		t.Fatalf("loaded abort did not set TrAbortLoaded: %#x", w.mon.TransitionBitmap())
	}
}

func TestTransitionBitmapMapAndMeasurement(t *testing.T) {
	w := bootWorld(t)
	prog := testProgram(t)

	// Measurement mismatch.
	bad := prog.Measurement()
	bad[0] ^= 0xff
	if _, err := w.mon.submit(Call{Program: prog, Expected: bad}); err == nil {
		t.Fatal("mismatched measurement accepted")
	}
	if !hasBit(w.mon, TrSubmitBadMeas) {
		t.Fatalf("TrSubmitBadMeas not set: %#x", w.mon.TransitionBitmap())
	}

	// Register the secure region so the map checks can classify targets.
	if err := w.machine.Phys().AddRegion(mem.Region{
		Name: "secure-dram", Base: secureBase, Size: secureSize, Owner: mem.Secure,
	}); err != nil {
		t.Fatal(err)
	}

	// Non-secure window into the secure region is refused and noted.
	if err := w.mon.mapNonSecure(0, 1, 0x4000, secureBase+0x1000, 0x1000); err == nil {
		t.Fatal("window into secure memory accepted")
	}
	if !hasBit(w.mon, TrMapSecureTarget) || hasBit(w.mon, TrMapOK) {
		t.Fatalf("map bits wrong: %#x", w.mon.TransitionBitmap())
	}

	// A legitimate window sets the ok bit.
	if err := w.mon.mapNonSecure(0, 1, 0x4000, 0x1000_0000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if !hasBit(w.mon, TrMapOK) {
		t.Fatalf("TrMapOK not set: %#x", w.mon.TransitionBitmap())
	}
}
