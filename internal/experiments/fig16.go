package experiments

import (
	"repro/internal/dma"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/spad"
	"repro/internal/xlate"
)

// Fig16Row is one (method, transaction-size) point of the NoC
// micro-test: the latency of moving `Lines` scratchpad lines from one
// core to its neighbor, and the achieved bandwidth.
type Fig16Row struct {
	Method string
	Lines  int
	// Latency is the end-to-end transfer time in cycles.
	Latency sim.Cycle
	// BandwidthBPC is bytes per cycle achieved.
	BandwidthBPC float64
}

var fig16Cols = []Column[Fig16Row]{
	Col("method", "%s", func(r Fig16Row) any { return r.Method }),
	Col("lines", "%d", func(r Fig16Row) any { return r.Lines }),
	Col("latency-cycles", "%d", func(r Fig16Row) any { return r.Latency }),
	Col("bandwidth-B/cycle", "%.2f", func(r Fig16Row) any { return r.BandwidthBPC }),
}

// fig16Sizes are the transaction sizes (scratchpad lines).
var fig16Sizes = []int{1, 4, 16, 64, 256, 1024}

// Fig16 measures core(0,0) -> core(1,0) transfers under three
// methods: the software NoC (dedicated shared memory: store + reload
// through DRAM), the unauthorized direct NoC, and the peephole NoC.
// The software-NoC numbers assume the ideal case — the NPU is the only
// DRAM client — matching the paper's micro-test setup.
func Fig16(cfg npu.Config) (*Result[Fig16Row], error) {
	cells, err := mapCells(fig16Sizes, func(lines int) ([]Fig16Row, error) {
		var rows []Fig16Row
		bytes := uint64(lines * cfg.SpadLineBytes)

		// Software NoC: producer mvout + consumer mvin on an idle DRAM
		// channel.
		{
			stats := sim.NewStats()
			RecordSoCStats(stats)
			channel := sim.NewResource("dram")
			eng := dma.New(cfg.DMAConfig(), xlate.NewIdentity(stats), channel, mem.NewPhysical(), stats)
			storeDone, err := eng.Do(dma.Request{VA: 0x8000_0000, Bytes: bytes, Dir: dma.ToMemory}, nil, spad.NonSecure, 0)
			if err != nil {
				return nil, err
			}
			loadDone, err := eng.Do(dma.Request{VA: 0x8000_0000, Bytes: bytes, Dir: dma.ToScratchpad}, nil, spad.NonSecure, storeDone)
			if err != nil {
				return nil, err
			}
			rows = append(rows, fig16Row("software-noc", lines, loadDone, bytes))
		}

		// Direct NoC, unauthorized and peephole.
		for _, method := range []struct {
			name     string
			peephole bool
		}{{"unauthorized-noc", false}, {"peephole-noc", true}} {
			stats := sim.NewStats()
			RecordSoCStats(stats)
			mesh, err := noc.NewMesh(noc.DefaultConfig(2, 1, method.peephole), stats)
			if err != nil {
				return nil, err
			}
			src := noc.NewRouterController(noc.Coord{X: 0, Y: 0}, mesh)
			done, err := src.Transfer(noc.Coord{X: 1, Y: 0}, lines, nil, 0)
			if err != nil {
				return nil, err
			}
			rows = append(rows, fig16Row(method.name, lines, done, bytes))
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result[Fig16Row]{Cols: fig16Cols}
	for _, rows := range cells {
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

func fig16Row(method string, lines int, latency sim.Cycle, bytes uint64) Fig16Row {
	bw := 0.0
	if latency > 0 {
		bw = float64(bytes) / float64(latency)
	}
	return Fig16Row{Method: method, Lines: lines, Latency: latency, BandwidthBPC: bw}
}
