package dma

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/spad"
)

func armFixture(t *testing.T, events []fault.Event) (*fixture, *fault.Injector) {
	t.Helper()
	f := newFixture(t)
	inj := fault.NewInjector(fault.Plan{Events: events}, f.stats)
	f.eng.AttachInjector(inj)
	return f, inj
}

func TestDMAStallWatchdogRetries(t *testing.T) {
	clean := newFixture(t)
	cleanDone, err := clean.eng.Do(Request{VA: 0x8000_0000, Bytes: 1024, Dir: ToScratchpad}, clean.sp, spad.NonSecure, 0)
	if err != nil {
		t.Fatal(err)
	}

	f, inj := armFixture(t, []fault.Event{{At: 0, Kind: fault.DMAStall}})
	done, err := f.eng.Do(Request{VA: 0x8000_0000, Bytes: 1024, Dir: ToScratchpad}, f.sp, spad.NonSecure, 0)
	if err != nil {
		t.Fatalf("stall not recovered: %v", err)
	}
	// One watchdog timeout delays the request by the watchdog period.
	if done != cleanDone+watchdogCycles {
		t.Fatalf("done = %d, want %d", done, cleanDone+watchdogCycles)
	}
	if f.stats.Get(sim.CtrDMATimeouts) != 1 || f.stats.Get(sim.CtrDMARetries) != 1 {
		t.Fatalf("counters: timeouts=%d retries=%d", f.stats.Get(sim.CtrDMATimeouts), f.stats.Get(sim.CtrDMARetries))
	}
	if inj.Remaining() != 0 {
		t.Fatal("event not consumed")
	}
}

func TestDMAStallsExhaustRetriesFailClosed(t *testing.T) {
	// retryLimit is 3: four due stall events exceed it.
	events := make([]fault.Event, 4)
	for i := range events {
		events[i] = fault.Event{At: 0, Kind: fault.DMAStall}
	}
	// Space the later ones inside the growing backoff window so each
	// reissue hits the next stall.
	f, _ := armFixture(t, events)
	_, err := f.eng.Do(Request{VA: 0x8000_0000, Bytes: 1024, Dir: ToScratchpad}, f.sp, spad.NonSecure, 0)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if f.stats.Get(sim.CtrDMATimeouts) != 4 {
		t.Fatalf("timeouts = %d, want 4", f.stats.Get(sim.CtrDMATimeouts))
	}
}

func TestDMABitFlipCorrectedByECC(t *testing.T) {
	f, _ := armFixture(t, []fault.Event{{At: 0, Kind: fault.DRAMBitFlip, Sel: 2, Bit: 9}})
	f.phys.EnableECC(f.stats)
	want := bytes.Repeat([]byte("0123456789abcdef"), 4)
	f.phys.Write(0x8000_0100, want)

	clean := newFixture(t)
	cleanDone, err := clean.eng.Do(Request{VA: 0x8000_0100, Bytes: 64, Dir: ToScratchpad, SpadLine: 0, Functional: true}, clean.sp, spad.NonSecure, 0)
	if err != nil {
		t.Fatal(err)
	}

	done, err := f.eng.Do(Request{VA: 0x8000_0100, Bytes: 64, Dir: ToScratchpad, SpadLine: 0, Functional: true}, f.sp, spad.NonSecure, 0)
	if err != nil {
		t.Fatalf("corrected flip failed the request: %v", err)
	}
	if done != cleanDone+mem.ECCCorrectionCycles {
		t.Fatalf("done = %d, want %d (+%d correction)", done, cleanDone+mem.ECCCorrectionCycles, mem.ECCCorrectionCycles)
	}
	// The data the scratchpad received is the corrected data.
	line := make([]byte, 16)
	if err := f.sp.Read(spad.NonSecure, 2, line); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(line, want[32:48]) {
		t.Fatalf("line 2 = %q, want %q", line, want[32:48])
	}
	if f.stats.Get(sim.CtrECCCorrected) != 1 {
		t.Fatal("correction not counted")
	}
}

func TestDMADoubleFlipFailsClosed(t *testing.T) {
	// Two flips in the same word (same Sel, different bits) make it
	// uncorrectable; the request must fail, not deliver garbage.
	f, _ := armFixture(t, []fault.Event{
		{At: 0, Kind: fault.DRAMBitFlip, Sel: 1, Bit: 3},
		{At: 0, Kind: fault.DRAMBitFlip, Sel: 1, Bit: 44},
	})
	f.phys.EnableECC(f.stats)
	f.phys.Write(0x8000_0200, bytes.Repeat([]byte{0xff}, 64))

	_, err := f.eng.Do(Request{VA: 0x8000_0200, Bytes: 64, Dir: ToScratchpad, SpadLine: 0, Functional: true}, f.sp, spad.NonSecure, 0)
	var eccErr *mem.ECCError
	if !errors.As(err, &eccErr) {
		t.Fatalf("err = %v, want ECCError", err)
	}
	if f.stats.Get(sim.CtrECCUncorrectable) != 1 {
		t.Fatal("uncorrectable not counted")
	}
}

// Without ECC the flip flows into the scratchpad silently — the
// baseline that motivates enabling it in InstallFaultPlan.
func TestDMABitFlipWithoutECCIsSilent(t *testing.T) {
	f, _ := armFixture(t, []fault.Event{{At: 0, Kind: fault.DRAMBitFlip, Sel: 0, Bit: 0}})
	want := bytes.Repeat([]byte{0x00}, 64)
	f.phys.Write(0x8000_0300, want)
	if _, err := f.eng.Do(Request{VA: 0x8000_0300, Bytes: 64, Dir: ToScratchpad, SpadLine: 0, Functional: true}, f.sp, spad.NonSecure, 0); err != nil {
		t.Fatal(err)
	}
	line := make([]byte, 16)
	if err := f.sp.Read(spad.NonSecure, 0, line); err != nil {
		t.Fatal(err)
	}
	if line[0] != 0x01 {
		t.Fatalf("line[0] = %#x, want the silent flip", line[0])
	}
}
