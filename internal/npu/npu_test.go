package npu

import (
	"testing"

	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/spad"
	"repro/internal/tee"
	"repro/internal/workload"
	"repro/internal/xlate"
)

func testNPU(t *testing.T, cfg Config, makeXlate func(int) xlate.Translator) *NPU {
	t.Helper()
	phys := mem.NewPhysical()
	n, err := New(cfg, phys, sim.NewStats(), makeXlate)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func smallWorkload() workload.Workload {
	return workload.Workload{
		Name: "small",
		Layers: []workload.Layer{
			{Name: "l0", GEMMs: []workload.GEMM{{Name: "g0", M: 64, K: 128, N: 64}}},
			{Name: "l1", GEMMs: []workload.GEMM{{Name: "g1", M: 64, K: 64, N: 128}}},
			{Name: "l2", GEMMs: []workload.GEMM{{Name: "g2", M: 32, K: 128, N: 32}}},
		},
	}
}

func TestConfigDerivations(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.SpadLines() != (256<<10)/16 {
		t.Fatalf("spad lines = %d", cfg.SpadLines())
	}
	if cfg.PeakMACsPerCycle() != 10*16*16 {
		t.Fatalf("peak = %d", cfg.PeakMACsPerCycle())
	}
}

func TestNewNPUValidation(t *testing.T) {
	phys := mem.NewPhysical()
	cfg := DefaultConfig()
	cfg.Tiles = 0
	if _, err := New(cfg, phys, sim.NewStats(), nil); err == nil {
		t.Fatal("zero tiles accepted")
	}
	cfg = DefaultConfig()
	cfg.MeshW, cfg.MeshH = 2, 2 // 4 < 10 tiles
	if _, err := New(cfg, phys, sim.NewStats(), nil); err == nil {
		t.Fatal("undersized mesh accepted")
	}
}

func TestCompileProducesRunnableProgram(t *testing.T) {
	cfg := DefaultConfig()
	prog, st, err := Compile(smallWorkload(), cfg, 0, DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops == 0 || st.TileIters == 0 {
		t.Fatalf("empty compile: %+v", st)
	}
	if prog.Layers != 3 {
		t.Fatalf("layers = %d", prog.Layers)
	}
	if prog.TotalMACs != smallWorkload().MACs() {
		t.Fatalf("MACs = %d", prog.TotalMACs)
	}
	// Ops interleave loads, computes, stores.
	var loads, computes, stores int
	for _, op := range prog.Ops {
		switch op.Kind {
		case OpLoad:
			loads++
		case OpCompute:
			computes++
		case OpStore:
			stores++
		}
	}
	if loads == 0 || computes == 0 || stores == 0 {
		t.Fatalf("op mix: %d loads %d computes %d stores", loads, computes, stores)
	}
	if computes != st.TileIters {
		t.Fatalf("computes %d != tile iters %d", computes, st.TileIters)
	}
}

func TestCompileRejectsInvalid(t *testing.T) {
	cfg := DefaultConfig()
	if _, _, err := Compile(workload.Workload{Name: "x"}, cfg, 0, DefaultLayout); err == nil {
		t.Fatal("invalid workload compiled")
	}
}

func TestProgramMeasurementDetectsTamper(t *testing.T) {
	cfg := DefaultConfig()
	prog, _, err := Compile(smallWorkload(), cfg, 0, DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	m1 := prog.Measurement()
	prog.Ops[0].VA ^= 0x40 // redirect one load
	if prog.Measurement() == m1 {
		t.Fatal("measurement insensitive to op tamper")
	}
}

func TestVASpanCoversAllAccesses(t *testing.T) {
	cfg := DefaultConfig()
	prog, _, err := Compile(smallWorkload(), cfg, 0, DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := prog.VASpan()
	for _, op := range prog.Ops {
		if op.Kind != OpLoad && op.Kind != OpStore {
			continue
		}
		if op.VA < lo || op.VA+mem.VirtAddr(op.Bytes) > hi {
			t.Fatalf("op at %#x outside span [%#x,%#x)", uint64(op.VA), uint64(lo), uint64(hi))
		}
	}
}

func TestExecRunsToCompletion(t *testing.T) {
	n := testNPU(t, DefaultConfig(), nil)
	prog, _, err := Compile(smallWorkload(), n.Config(), 0, DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	core, _ := n.Core(0)
	ex := NewExec(core, prog, 1)
	end, err := ex.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 || !ex.Done() {
		t.Fatalf("end=%d done=%v", end, ex.Done())
	}
	if ex.ComputeBusy <= 0 {
		t.Fatal("no compute recorded")
	}
	// Runtime is at least the compute lower bound.
	if end < sim.Cycle(prog.IdealComputeCycles) {
		t.Fatalf("end %d below ideal compute %d", end, prog.IdealComputeCycles)
	}
	u := Utilization(prog, end, n.Config().SystolicDim)
	if u <= 0 || u > 1 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestExecResumableSlices(t *testing.T) {
	n := testNPU(t, DefaultConfig(), nil)
	prog, _, err := Compile(smallWorkload(), n.Config(), 0, DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	core, _ := n.Core(0)

	// Whole-run reference.
	ref := NewExec(core, prog, 1)
	refEnd, err := ref.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	n.ResetTiming()

	// Sliced run with no inter-slice cost must finish at the same time
	// modulo pipeline-drain effects at boundaries (it can only be
	// slower, never faster).
	ex := NewExec(core, prog, 2)
	var now sim.Cycle
	steps := 0
	for !ex.Done() {
		end, err := ex.RunUntil(now, BoundaryTile)
		if err != nil {
			t.Fatal(err)
		}
		now = end
		steps++
	}
	if steps < 2 {
		t.Fatalf("boundary never fired (steps=%d)", steps)
	}
	if now < refEnd {
		t.Fatalf("sliced run (%d) finished before contiguous run (%d)", now, refEnd)
	}
}

func TestBoundaryLayers(t *testing.T) {
	b := BoundaryLayers(2)
	ops := []Op{
		{Kind: OpCompute, Layer: 0, Tile: true},
		{Kind: OpCompute, Layer: 0, Tile: true},
		{Kind: OpCompute, Layer: 1, Tile: true},
		{Kind: OpCompute, Layer: 2, Tile: true},
	}
	fired := -1
	for i, op := range ops {
		if b(op) {
			fired = i
			break
		}
	}
	if fired != 3 {
		t.Fatalf("2-layer boundary fired at op %d, want 3", fired)
	}
}

func TestSetDomainSecureInstruction(t *testing.T) {
	n := testNPU(t, DefaultConfig(), nil)
	machine := tee.NewMachine(mem.NewPhysical())
	core, _ := n.Core(0)
	if err := core.SetDomain(machine.NormalContext(), spad.SecureDomain); err == nil {
		t.Fatal("normal world set core ID state")
	}
	if err := core.SetDomain(machine.SecureContext(), spad.SecureDomain); err != nil {
		t.Fatal(err)
	}
	if core.Domain() != spad.SecureDomain || core.World() != mem.Secure {
		t.Fatal("domain not applied")
	}
	if err := core.SetDomain(machine.SecureContext(), 2); err == nil {
		t.Fatal("domain beyond 1-bit ID accepted")
	}
	// Mesh sees the live core state.
	if got := n.Mesh().IDSource(core.Coord()); got != spad.SecureDomain {
		t.Fatalf("mesh sees domain %d", got)
	}
}

func TestSetCoreDomains(t *testing.T) {
	n := testNPU(t, DefaultConfig(), nil)
	machine := tee.NewMachine(mem.NewPhysical())
	if err := n.SetCoreDomains(machine.SecureContext(), []int{0, 1, 2}, spad.SecureDomain); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c, _ := n.Core(i)
		if c.Domain() != spad.SecureDomain {
			t.Fatalf("core %d not secured", i)
		}
	}
	if err := n.SetCoreDomains(machine.SecureContext(), []int{99}, spad.SecureDomain); err == nil {
		t.Fatal("out-of-range core accepted")
	}
}

func TestGuardedExecNeedsMappings(t *testing.T) {
	// An exec running behind an IOMMU with no mappings faults.
	stats := sim.NewStats()
	phys := mem.NewPhysical()
	u := iommu.New(iommu.DefaultConfig(8), stats)
	n, err := New(DefaultConfig(), phys, stats, func(int) xlate.Translator { return u })
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := Compile(smallWorkload(), n.Config(), 0, DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	core, _ := n.Core(0)
	if _, err := NewExec(core, prog, 1).Run(0); err == nil {
		t.Fatal("unmapped program ran")
	}
	// Map the program's span and it runs.
	lo, hi := prog.VASpan()
	base := mem.PageAlignDown(mem.PhysAddr(lo))
	size := uint64(mem.PageAlignUp(mem.PhysAddr(hi)) - base)
	if err := u.Table().MapRange(mem.VirtAddr(base), 0x8000_0000, size, mem.PermRW, false); err != nil {
		t.Fatal(err)
	}
	if _, err := NewExec(core, prog, 1).Run(0); err != nil {
		t.Fatalf("mapped program failed: %v", err)
	}
}

func TestTransferModeString(t *testing.T) {
	if TransferNoC.String() != "noc" || TransferSharedMemory.String() != "shared-memory" {
		t.Fatal("mode names")
	}
}

func TestOpKindString(t *testing.T) {
	for k, want := range map[OpKind]string{
		OpLoad: "mvin", OpStore: "mvout", OpCompute: "matmul",
		OpSend: "noc.send", OpRecv: "noc.recv", OpKind(99): "unknown",
	} {
		if k.String() != want {
			t.Fatalf("%d -> %q", k, k.String())
		}
	}
}

func TestDomainOf(t *testing.T) {
	if domainOf(true) != spad.SecureDomain || domainOf(false) != spad.NonSecure {
		t.Fatal("domainOf")
	}
}

func TestProgramValidate(t *testing.T) {
	cfg := DefaultConfig()
	prog, _, err := Compile(smallWorkload(), cfg, 0, DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatalf("compiler output invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Program)
	}{
		{"no-ops", func(p *Program) { p.Ops = nil }},
		{"zero-layers", func(p *Program) { p.Layers = 0 }},
		{"layer-out-of-range", func(p *Program) { p.Ops[0].Layer = p.Layers }},
		{"layer-regression", func(p *Program) { p.Ops[len(p.Ops)-1].Layer = 0; p.Ops[0].Layer = 1 }},
		{"empty-load", func(p *Program) { p.Ops[0].Bytes = 0 }},
		{"bad-kind", func(p *Program) { p.Ops[0].Kind = OpKind(99) }},
	}
	for _, c := range cases {
		p, _, err := Compile(smallWorkload(), cfg, 0, DefaultLayout)
		if err != nil {
			t.Fatal(err)
		}
		c.mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
	// Zero-cycle compute rejected.
	bad := &Program{Name: "x", Layers: 1, Ops: []Op{{Kind: OpCompute, Cycles: 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("zero-cycle compute validated")
	}
	// Zero-flit send rejected.
	bad = &Program{Name: "x", Layers: 1, Ops: []Op{{Kind: OpSend, Flits: 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("zero-flit send validated")
	}
}
