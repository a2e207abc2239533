package driver

import (
	"testing"

	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/spad"
	"repro/internal/workload"
)

func smallWorkload(name string) workload.Workload {
	return workload.Workload{
		Name: name,
		Layers: []workload.Layer{
			{Name: "l0", GEMMs: []workload.GEMM{{Name: "g0", M: 64, K: 256, N: 64}}},
			{Name: "l1", GEMMs: []workload.GEMM{{Name: "g1", M: 64, K: 64, N: 256}}},
			{Name: "l2", GEMMs: []workload.GEMM{{Name: "g2", M: 64, K: 128, N: 64}}},
			{Name: "l3", GEMMs: []workload.GEMM{{Name: "g3", M: 32, K: 256, N: 32}}},
			{Name: "l4", GEMMs: []workload.GEMM{{Name: "g4", M: 32, K: 128, N: 64}}},
			{Name: "l5", GEMMs: []workload.GEMM{{Name: "g5", M: 48, K: 192, N: 48}}},
		},
	}
}

func testSetup(t *testing.T) (*Driver, *npu.NPU) {
	t.Helper()
	cfg := npu.DefaultConfig()
	stats := sim.NewStats()
	phys := mem.NewPhysical()
	n, err := npu.New(cfg, phys, stats, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := New(cfg, 0x8800_0000, 256<<20, stats)
	return d, n
}

func TestSubmitAllocatesChunk(t *testing.T) {
	d, _ := testSetup(t)
	task, err := d.Submit(smallWorkload("a"), npu.DefaultLayout, false)
	if err != nil {
		t.Fatal(err)
	}
	if task.ChunkSize == 0 || task.Chunk < 0x8800_0000 {
		t.Fatalf("chunk = %#x size %d", uint64(task.Chunk), task.ChunkSize)
	}
	if task.Program == nil || task.ID == 0 {
		t.Fatal("task not populated")
	}
	used := d.Reserved().UsedBytes()
	if used != task.ChunkSize {
		t.Fatalf("reserved used = %d, want %d", used, task.ChunkSize)
	}
	if err := d.Release(task); err != nil {
		t.Fatal(err)
	}
	if d.Reserved().UsedBytes() != 0 {
		t.Fatal("release leaked")
	}
}

func TestSubmitDistinctIDs(t *testing.T) {
	d, _ := testSetup(t)
	t1, err := d.Submit(smallWorkload("a"), npu.DefaultLayout, false)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := d.Submit(smallWorkload("b"), npu.DefaultLayout, true)
	if err != nil {
		t.Fatal(err)
	}
	if t1.ID == t2.ID {
		t.Fatal("duplicate task IDs")
	}
	if t1.Chunk == t2.Chunk {
		t.Fatal("overlapping chunks")
	}
}

func TestRunSoloWithIOMMU(t *testing.T) {
	cfg := npu.DefaultConfig()
	stats := sim.NewStats()
	u := iommu.New(iommu.DefaultConfig(16), stats)
	n, err := npu.New(cfg, mem.NewPhysical(), stats, nil)
	if err != nil {
		t.Fatal(err)
	}
	core, _ := n.Core(0)
	core.DMA().SetTranslator(u)

	d := New(cfg, 0x8800_0000, 256<<20, stats)
	task, err := d.Submit(smallWorkload("a"), npu.DefaultLayout, false)
	if err != nil {
		t.Fatal(err)
	}
	// Unmapped -> faults.
	if _, err := npu.NewExec(core, task.Program, task.ID).Run(0); err == nil {
		t.Fatal("unmapped task ran under IOMMU")
	}
	if err := d.MapTask(u, task); err != nil {
		t.Fatal(err)
	}
	cycles, err := npu.NewExec(core, task.Program, task.ID).Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if cycles <= 0 {
		t.Fatal("no runtime")
	}
}

func TestTimeSharedFlushCostOrdering(t *testing.T) {
	// tile-granularity flushing must cost more than 5-layer flushing,
	// which must cost more than no flushing at all.
	run := func(gran spad.FlushGranularity, flush bool) sim.Cycle {
		d, n := testSetup(t)
		core, _ := n.Core(0)
		t1, err := d.Submit(smallWorkload("a"), npu.DefaultLayout, true)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := d.Submit(smallWorkload("b"), npu.DefaultLayout, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.RunTimeShared(core, []*Task{t1, t2}, gran, flush)
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan()
	}
	none := run(spad.FlushPerTile, false)
	five := run(spad.FlushPer5Layers, true)
	tile := run(spad.FlushPerTile, true)
	// Finer flushing costs more; no-flush tile sharing is cheapest at
	// the same (tile) switching granularity.
	if !(none < tile && five < tile) {
		t.Fatalf("flush ordering violated: none=%d 5layer=%d tile=%d", none, five, tile)
	}
}

func TestTimeSharedBothFinish(t *testing.T) {
	d, n := testSetup(t)
	core, _ := n.Core(0)
	t1, _ := d.Submit(smallWorkload("a"), npu.DefaultLayout, false)
	t2, _ := d.Submit(smallWorkload("b"), npu.DefaultLayout, false)
	res, err := d.RunTimeShared(core, []*Task{t1, t2}, spad.FlushPerLayer, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range res.Finish {
		if f <= 0 {
			t.Fatalf("task %d never finished", i)
		}
	}
	if res.Switches == 0 {
		t.Fatal("no context switches in a time-shared run")
	}
	if res.FlushCycles <= 0 {
		t.Fatal("no flush cost recorded")
	}
	if err := func() error { _, err := d.RunTimeShared(core, nil, spad.FlushPerTile, false); return err }(); err == nil {
		t.Fatal("empty task list accepted")
	}
}
