package dma_test

import (
	"testing"

	"repro/internal/dma"
	"repro/internal/guarder"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/tee"
	"repro/internal/workload"
	"repro/internal/xlate"
)

// benchPA is where the benchmarks map a program's VA span.
const benchPA = mem.PhysAddr(0x8000_0000)

var sinkCycle sim.Cycle

// yololiteOps compiles yololite, walks its op stream with a cursor
// once, and returns the ops with their page-aligned VA window. The
// benchmarks replay the collected ops, so they time the DMA path and
// not the expansion.
func yololiteOps(b *testing.B) (ops []npu.Op, vbase mem.VirtAddr, size uint64) {
	b.Helper()
	w, err := workload.Lookup("yololite")
	if err != nil {
		b.Fatal(err)
	}
	p, _, err := npu.CompileCached(w, npu.DefaultConfig(), 0, npu.DefaultLayout)
	if err != nil {
		b.Fatal(err)
	}
	c := p.Cursor()
	for op, ok := c.Next(); ok; op, ok = c.Next() {
		ops = append(ops, op)
	}
	vbase, size = mem.PageWindow(p.VASpan())
	return ops, vbase, size
}

// replay issues the loads and stores of ops through eng the way the
// executor does: the loads of a tile as one pipelined batch at its
// compute op, each store on its own.
func replay(b *testing.B, eng *dma.Engine, ops []npu.Op) sim.Cycle {
	var loads []dma.Request
	var at sim.Cycle
	for _, op := range ops {
		var batch []dma.Request
		switch op.Kind {
		case npu.OpLoad:
			loads = append(loads, dma.Request{VA: op.VA, Bytes: op.Bytes, Dir: dma.ToScratchpad, TaskID: 1})
			continue
		case npu.OpStore:
			batch = []dma.Request{{VA: op.VA, Bytes: op.Bytes, Dir: dma.ToMemory, TaskID: 1}}
		case npu.OpCompute:
			batch, loads = loads, loads[:0]
		}
		done, err := eng.DoPipelined(batch, nil, 0, at)
		if err != nil {
			b.Fatal(err)
		}
		at = done
	}
	return at
}

// benchOpStream replays yololite's op stream through one core's DMA
// engine behind xl, once per iteration; stats is xl's counter sink.
func benchOpStream(b *testing.B, ops []npu.Op, xl xlate.Translator, stats *sim.Stats) {
	eng := dma.New(dma.DefaultConfig(), xl, sim.NewResource("dram"), mem.NewPhysical(), stats)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkCycle = replay(b, eng, ops)
	}
	b.ReportMetric(float64(stats.Get(sim.CtrDMARequests))/float64(b.N), "requests/op")
}

// BenchmarkOpStreamGuarder is the per-request path of the paper's
// Guarder: one register lookup and one check per DMA request.
func BenchmarkOpStreamGuarder(b *testing.B) {
	ops, vbase, size := yololiteOps(b)
	stats := sim.NewStats()
	g := guarder.NewDefault(stats)
	sec := tee.NewMachine(mem.NewPhysical()).SecureContext()
	if err := g.SetTransReg(sec, 0, guarder.TransReg{VBase: vbase, PBase: benchPA, Size: size, Valid: true}); err != nil {
		b.Fatal(err)
	}
	if err := g.SetCheckReg(sec, 0, guarder.CheckReg{Base: benchPA, Size: size, Perm: mem.PermRW, World: mem.Normal, Valid: true}); err != nil {
		b.Fatal(err)
	}
	benchOpStream(b, ops, g, stats)
}

// BenchmarkOpStreamIOTLB16 is the per-packet path of an IOMMU with a
// 16-entry IOTLB: a lookup per 64-byte packet and a walk per miss.
func BenchmarkOpStreamIOTLB16(b *testing.B) {
	ops, vbase, size := yololiteOps(b)
	stats := sim.NewStats()
	u := iommu.New(iommu.DefaultConfig(16), stats)
	if err := u.Table().MapRange(vbase, benchPA, size, mem.PermRW, false); err != nil {
		b.Fatal(err)
	}
	benchOpStream(b, ops, u, stats)
}
