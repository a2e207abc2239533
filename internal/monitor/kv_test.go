package monitor

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/guarder"
	"repro/internal/mem"
	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/spad"
	"repro/internal/tee"
)

// bootKVWorld is bootWorld with a configurable ID-tag width: KV
// residency needs domains beyond the two-world minimum.
func bootKVWorld(t *testing.T, idBits int) *world {
	t.Helper()
	stats := sim.NewStats()
	phys := mem.NewPhysical()
	machine := tee.NewMachine(phys)
	loader, fw, teeos, monBlob := []byte("ldr"), []byte("fw"), []byte("teeos"), []byte("npu-monitor")
	machine.BootChain().AddStage("trusted-loader", tee.MeasureBytes(loader))
	machine.BootChain().AddStage("trusted-firmware", tee.MeasureBytes(fw))
	machine.BootChain().AddStage("teeos", tee.MeasureBytes(teeos))
	machine.BootChain().AddStage("npu-monitor", tee.MeasureBytes(monBlob))
	if err := machine.Boot([][]byte{loader, fw, teeos, monBlob}); err != nil {
		t.Fatal(err)
	}
	cfg := npu.DefaultConfig()
	cfg.IDBits = idBits
	acc, err := npu.New(cfg, phys, stats, nil)
	if err != nil {
		t.Fatal(err)
	}
	guarders := make(map[int]*guarder.Guarder)
	for i := range acc.Cores() {
		guarders[i] = guarder.NewDefault(stats)
	}
	mon, err := New(machine, acc, guarders, secureBase, secureSize, stats)
	if err != nil {
		t.Fatal(err)
	}
	return &world{machine: machine, acc: acc, mon: mon, guarders: guarders, stats: stats}
}

func loadKVTask(t *testing.T, w *world, cores []int) int {
	t.Helper()
	prog := testProgram(t)
	id, err := w.mon.submit(Call{Program: prog, Expected: prog.Measurement()})
	if err != nil {
		t.Fatal(err)
	}
	core, err := w.acc.Core(cores[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := w.mon.load(id, cores, 0, core.Scratchpad().Lines()); err != nil {
		t.Fatal(err)
	}
	return id
}

func TestKVAllocClaimsPartitionWindow(t *testing.T) {
	w := bootKVWorld(t, 4)
	id := loadKVTask(t, w, []int{0})
	core, _ := w.acc.Core(0)
	sp := core.Scratchpad()

	dom, err := w.mon.kvAlloc(id, 0, 32, 4096)
	if err != nil {
		t.Fatalf("kv alloc: %v", err)
	}
	if dom < 2 {
		t.Fatalf("kv domain %d, want >= 2 (0/1 are the world domains)", dom)
	}
	r, ok := w.mon.KVRegionFor(id, 0)
	if !ok {
		t.Fatal("no kv region recorded")
	}
	start := sp.Lines() - sp.Lines()/4
	if r.From < start || r.To > sp.Lines() || r.Lines() != 32 {
		t.Fatalf("window [%d,%d) outside kv partition [%d,%d)", r.From, r.To, start, sp.Lines())
	}
	if n := sp.CountDomain(dom); n != 32 {
		t.Fatalf("%d lines tagged %d, want 32", n, dom)
	}
	if w.mon.TransitionBitmap()&(1<<TrKVAlloc) == 0 {
		t.Fatalf("TrKVAlloc not noted: %#x", w.mon.TransitionBitmap())
	}

	// Monitor-mediated: the same request through the trampoline for a
	// second core reports the domain as the reply value.
	id2 := loadKVTask(t, w, []int{1})
	rep := w.mon.Dispatch(Call{Func: FnKVAlloc, Args: []uint64{uint64(id2), 1, 16, 1024}})
	if rep.Err != nil {
		t.Fatalf("FnKVAlloc: %v", rep.Err)
	}
	if rep.Value < 2 {
		t.Fatalf("FnKVAlloc domain %d, want >= 2", rep.Value)
	}
}

// The point of residency: a preemption's context-switch scrub walks
// around the KV window, so the cache survives with its bytes intact
// and its isolation still enforced by the ID bits.
func TestKVWindowSurvivesPreemptionIsolated(t *testing.T) {
	w := bootKVWorld(t, 4)
	id := loadKVTask(t, w, []int{0})
	core, _ := w.acc.Core(0)
	sp := core.Scratchpad()

	dom, err := w.mon.kvAlloc(id, 0, 8, 512)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := w.mon.KVRegionFor(id, 0)
	sentinel := []byte("kv-cache-sentinel")[:sp.LineBytes()]
	if err := sp.Write(dom, r.From+2, sentinel); err != nil {
		t.Fatal(err)
	}
	// Secure residue outside the window, to prove the scrub still runs.
	if err := sp.Write(spad.SecureDomain, 5, sentinel); err != nil {
		t.Fatal(err)
	}

	if err := w.mon.preempt(id); err != nil {
		t.Fatal(err)
	}
	if n := sp.CountDomain(spad.SecureDomain); n != 0 {
		t.Fatalf("%d secure lines survived the preemption scrub", n)
	}
	buf := make([]byte, sp.LineBytes())
	if err := sp.Read(dom, r.From+2, buf); err != nil {
		t.Fatalf("owner read of resident kv after preempt: %v", err)
	}
	if !bytes.Equal(buf, sentinel) {
		t.Fatalf("kv bytes did not survive preemption: %q", buf)
	}
	// Every other domain is refused by the §IV-B read rule.
	for _, probe := range []spad.DomainID{spad.NonSecure, spad.SecureDomain, dom + 1} {
		if err := sp.Read(probe, r.From+2, buf); !errors.Is(err, spad.ErrIsolation) {
			t.Fatalf("domain %d read of kv line: err=%v, want ErrIsolation", probe, err)
		}
	}

	// Owner teardown while preempted (queued): window scrubbed + freed.
	if err := w.mon.unload(id); err != nil {
		t.Fatal(err)
	}
	if n := sp.CountDomain(dom); n != 0 {
		t.Fatalf("%d kv lines survived the owner's unload", n)
	}
	if _, ok := w.mon.KVRegionFor(id, 0); ok {
		t.Fatal("kv region survived the owner's unload")
	}
	if w.mon.TransitionBitmap()&(1<<TrKVScrub) == 0 {
		t.Fatalf("TrKVScrub not noted: %#x", w.mon.TransitionBitmap())
	}
}

func TestKVAbortScrubsWindows(t *testing.T) {
	w := bootKVWorld(t, 4)
	id := loadKVTask(t, w, []int{0})
	core, _ := w.acc.Core(0)
	sp := core.Scratchpad()
	dom, err := w.mon.kvAlloc(id, 0, 8, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.mon.abort(id); err != nil {
		t.Fatal(err)
	}
	if n := sp.CountDomain(dom); n != 0 {
		t.Fatalf("%d kv lines survived the abort", n)
	}
	if len(w.mon.KVRegions()) != 0 {
		t.Fatal("kv regions survived the abort")
	}
}

func TestKVAllocRefusals(t *testing.T) {
	w := bootKVWorld(t, 2) // maxDomain = 3: exactly two kv domains
	if _, err := w.mon.kvAlloc(99, 0, 8, 512); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("unknown task: %v", err)
	}
	prog := testProgram(t)
	queued, err := w.mon.submit(Call{Program: prog, Expected: prog.Measurement()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.mon.kvAlloc(queued, 0, 8, 512); err == nil {
		t.Fatal("kv alloc for a never-loaded task accepted")
	}
	id := loadKVTask(t, w, []int{0})
	if _, err := w.mon.kvAlloc(id, 3, 8, 512); err == nil {
		t.Fatal("kv alloc on a core the task is not loaded on accepted")
	}
	if _, err := w.mon.kvAlloc(id, 0, 0, 512); err == nil {
		t.Fatal("zero-line kv alloc accepted")
	}
	core, _ := w.acc.Core(0)
	if _, err := w.mon.kvAlloc(id, 0, core.Scratchpad().Lines(), 512); !errors.Is(err, ErrKVExhausted) {
		t.Fatalf("partition-sized overflow: %v", err)
	}
	if _, err := w.mon.kvAlloc(id, 0, 8, 512); err != nil {
		t.Fatal(err)
	}
	if _, err := w.mon.kvAlloc(id, 0, 8, 512); !errors.Is(err, ErrKVDup) {
		t.Fatalf("duplicate region: %v", err)
	}
	// Two more tasks on the same core: the second exhausts the 2-bit
	// domain space.
	id2 := loadKVTask(t, w, []int{1})
	if err := w.mon.preempt(id2); err != nil {
		t.Fatal(err)
	}
	if err := w.mon.load(id2, []int{0}, 0, core.Scratchpad().Lines()/2); err == nil {
		// Overlap with id's full-range load is expected to refuse; load
		// elsewhere in that case is irrelevant to the domain-space check
		// below, so tolerate either.
		t.Log("secondary load accepted")
	}
	if _, err := w.mon.kvAlloc(id2, 0, 8, 512); err == nil {
		t.Fatal("kv alloc for an overlapping/unloaded task accepted")
	}
	if w.mon.TransitionBitmap()&(1<<TrKVRefused) == 0 {
		t.Fatalf("TrKVRefused not noted: %#x", w.mon.TransitionBitmap())
	}
}

func TestKVConfigTooNarrow(t *testing.T) {
	w := bootKVWorld(t, 1)
	id := loadKVTask(t, w, []int{0})
	if _, err := w.mon.kvAlloc(id, 0, 8, 512); !errors.Is(err, ErrKVConfig) {
		t.Fatalf("1-bit ID state: %v, want ErrKVConfig", err)
	}
}

func TestKVDomainSpaceExhaustion(t *testing.T) {
	w := bootKVWorld(t, 2) // domains 2 and 3 available
	core, _ := w.acc.Core(0)
	lines := core.Scratchpad().Lines()
	quarter := lines / 8
	ids := make([]int, 3)
	for i := range ids {
		prog := testProgram(t)
		id, err := w.mon.submit(Call{Program: prog, Expected: prog.Measurement()})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.mon.load(id, []int{0}, i*quarter, (i+1)*quarter); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if _, err := w.mon.kvAlloc(ids[0], 0, 4, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := w.mon.kvAlloc(ids[1], 0, 4, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := w.mon.kvAlloc(ids[2], 0, 4, 64); !errors.Is(err, ErrKVExhausted) {
		t.Fatalf("third kv domain on a 2-bit core: %v, want ErrKVExhausted", err)
	}
	// Retiring one domain makes it reusable.
	if err := w.mon.unload(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.mon.kvAlloc(ids[2], 0, 4, 64); err != nil {
		t.Fatalf("kv alloc after domain retirement: %v", err)
	}
}
