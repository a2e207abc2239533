package snpu

// Whole-system integration tests: scenarios that cross several
// subsystems (driver + monitor + guarder + scratchpad + NoC) on one
// booted SoC, the way a deployment would exercise them.

import (
	"bytes"
	"testing"

	"repro/internal/mem"
	"repro/internal/monitor"
	"repro/internal/npu"
	"repro/internal/spad"
	"repro/internal/workload"
)

// A full day in the life of one SoC: secure boot, several non-secure
// inferences, a secure task loaded/run/unloaded in between, time
// sharing, and a model-parallel run — all on the same system instance.
func TestSystemLifecycle(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Several non-secure runs back to back.
	for _, m := range []string{"yololite", "mobilenet"} {
		if _, err := sys.RunModel(m); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}

	// Secure task in the middle.
	key := bytes.Repeat([]byte{9}, SealKeySize)
	if err := sys.ProvisionKey("k", key); err != nil {
		t.Fatal(err)
	}
	sealed, err := SealModel(key, []byte("weights"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.SubmitSecure("yololite", "k", sealed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunSecure(h); err != nil {
		t.Fatal(err)
	}

	// Time sharing still works afterwards.
	if _, err := sys.TimeShare("yololite", "yololite", FlushPerLayer, true); err != nil {
		t.Fatal(err)
	}

	// Model-parallel over a 2x2 block.
	res, err := sys.RunModelParallel("yololite", []int{0, 1, 5, 6}, TransferNoC)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles <= 0 {
		t.Fatal("no cycles")
	}

	// Nothing leaked a secure domain: every core is back to normal.
	for _, c := range sys.NPU().Cores() {
		if c.Domain() != spad.NonSecure {
			t.Fatalf("core %d left secure", c.ID())
		}
	}
}

// The secure task's scratchpad residue must be unreadable between its
// unload and any later non-secure task on the same core — the
// LeftoverLocals lifecycle, end to end through the monitor.
func TestSecureResidueScrubbedAcrossTasks(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	core, _ := sys.NPU().Core(0)
	// Simulate the secure task having left data: flip the core secure
	// through the monitor path and write.
	key := bytes.Repeat([]byte{1}, SealKeySize)
	if err := sys.ProvisionKey("k", key); err != nil {
		t.Fatal(err)
	}
	sealed, err := SealModel(key, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.SubmitSecure("yololite", "k", sealed)
	if err != nil {
		t.Fatal(err)
	}
	// Load (core goes secure), plant a secret, then unload (scrub).
	spadLines := sys.NPU().Config().SpadLines()
	rep := sys.Monitor().Dispatch(monitor.Call{
		Func: monitor.FnLoad,
		Args: []uint64{uint64(h.ID), 0, uint64(spadLines), 0},
	})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	secret := []byte("session-secret!!")
	if err := core.Scratchpad().Write(spad.SecureDomain, 10, secret); err != nil {
		t.Fatal(err)
	}
	if rep := sys.Monitor().Dispatch(monitor.Call{Func: monitor.FnUnload, Args: []uint64{uint64(h.ID)}}); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	// The next (non-secure) task reads the line freely — and finds
	// zeros, because the monitor scrubbed on unload.
	buf := make([]byte, core.Scratchpad().LineBytes())
	if err := core.Scratchpad().Read(spad.NonSecure, 10, buf); err != nil {
		t.Fatalf("post-unload read denied: %v", err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("secure residue survived unload")
		}
	}
}

// Tenant A's accumulator lines must not reach tenant B's secure task on
// the same core. The accumulator's shared rule lets any secure core
// read a secure line, so A's orderly unload has to reset them.
func TestAccumulatorResidueScrubbedBetweenTenants(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	core, err := sys.NPU().Core(0)
	if err != nil {
		t.Fatal(err)
	}
	acc := core.Accumulator()
	spadLines := sys.NPU().Config().SpadLines()
	load := func(keyID string, seed byte) *SecureTaskHandle {
		t.Helper()
		key := bytes.Repeat([]byte{seed}, SealKeySize)
		if err := sys.ProvisionKey(keyID, key); err != nil {
			t.Fatal(err)
		}
		sealed, err := SealModel(key, []byte("m"))
		if err != nil {
			t.Fatal(err)
		}
		h, err := sys.SubmitSecure("yololite", keyID, sealed)
		if err != nil {
			t.Fatal(err)
		}
		if rep := sys.Monitor().Dispatch(monitor.Call{
			Func: monitor.FnLoad,
			Args: []uint64{uint64(h.ID), 0, uint64(spadLines), 0},
		}); rep.Err != nil {
			t.Fatal(rep.Err)
		}
		return h
	}
	unload := func(h *SecureTaskHandle) {
		t.Helper()
		if rep := sys.Monitor().Dispatch(monitor.Call{Func: monitor.FnUnload, Args: []uint64{uint64(h.ID)}}); rep.Err != nil {
			t.Fatal(rep.Err)
		}
	}

	a := load("a", 1)
	secret := []byte("tenant-A-psums!!")
	if err := acc.Write(core.Domain(), 3, secret); err != nil {
		t.Fatal(err)
	}
	unload(a)

	b := load("b", 2)
	buf := make([]byte, acc.LineBytes())
	if err := acc.Read(core.Domain(), 3, buf); err == nil && bytes.Contains(buf, secret) {
		t.Fatal("tenant B's secure task read tenant A's accumulator line")
	}
	unload(b)
}

// Reserved-memory accounting survives a churn of submissions and
// releases (allocator + driver integration).
func TestDriverChurnNoLeak(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Lookup("yololite")
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Driver().Reserved().UsedBytes()
	for i := 0; i < 10; i++ {
		task, err := sys.Driver().Submit(w, npu.DefaultLayout, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Driver().Release(task); err != nil {
			t.Fatal(err)
		}
	}
	if after := sys.Driver().Reserved().UsedBytes(); after != before {
		t.Fatalf("reserved memory leaked: %d -> %d", before, after)
	}
}

// Determinism: two identical systems produce bit-identical cycle
// counts and counters for the same run.
func TestDeterminism(t *testing.T) {
	run := func() (InferenceResult, map[string]int64) {
		sys, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunModel("mobilenet")
		if err != nil {
			t.Fatal(err)
		}
		return res, sys.Stats().Snapshot()
	}
	r1, s1 := run()
	r2, s2 := run()
	if r1.Cycles != r2.Cycles {
		t.Fatalf("cycles diverge: %d vs %d", r1.Cycles, r2.Cycles)
	}
	for k, v := range s1 {
		if s2[k] != v {
			t.Fatalf("counter %s diverges: %d vs %d", k, v, s2[k])
		}
	}
}

// The Guarder denies a driver-forged VA outside every installed
// window, end to end through the DMA engine on a live system.
func TestForgedVADeniedEndToEnd(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	core, _ := sys.NPU().Core(0)
	prog := &npu.Program{
		Name:   "forged",
		Layers: 1,
		Ops: []npu.Op{
			{Kind: npu.OpLoad, VA: mem.VirtAddr(0xdead_0000), Bytes: 64, Layer: 0},
			{Kind: npu.OpCompute, Cycles: 10, Layer: 0, Tile: true},
		},
	}
	ex := npu.NewExec(core, prog, 99)
	if _, err := ex.Run(0); err == nil {
		t.Fatal("forged VA executed")
	}
}

// MapWindow refuses windows reaching outside reserved memory.
func TestMapWindowBounds(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.MapWindow(0, 1, 0x1000, 1<<62, 4096); err == nil {
		t.Fatal("out-of-reserved window accepted")
	}
	if err := sys.MapWindow(0, 1, 0x1000, 0, 4096); err != nil {
		t.Fatalf("legal window rejected: %v", err)
	}
	// Baseline: nothing to program, must not error.
	base, err := New(BaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := base.MapWindow(0, 1, 0x1000, 0, 4096); err != nil {
		t.Fatal(err)
	}
}
