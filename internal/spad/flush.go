package spad

import "repro/internal/sim"

// This file models the flushing strawman the paper compares against
// (Table I, Fig. 14): scratchpad flushes with context save/restore,
// which add no hardware but cost performance. The other strawman,
// Fig. 15's static partition, is a fixed scratchpad split
// (experiments.Fig15).

// FlushGranularity selects how often a time-shared NPU switches tasks,
// and so flushes the scratchpad when the mechanism needs it (Fig. 14).
// sNPU's ID isolation switches at tiles and flushes nothing.
type FlushGranularity int

const (
	// FlushPerTile flushes at op-kernel (tile) boundaries.
	FlushPerTile FlushGranularity = iota
	// FlushPerLayer flushes at layer boundaries.
	FlushPerLayer
	// FlushPer5Layers flushes every five layers.
	FlushPer5Layers
)

func (g FlushGranularity) String() string {
	switch g {
	case FlushPerTile:
		return "tile"
	case FlushPerLayer:
		return "layer"
	case FlushPer5Layers:
		return "5-layers"
	default:
		return "unknown"
	}
}

// FlushCost computes the critical-path cycle cost of one flush event
// ("flushing is not just zeroing out the contents ... but needs to
// save and restore the task's context"). The save of the dirty bytes
// serializes before the next task may touch the scratchpad; the
// restore happens at the evicted task's next resume and overlaps its
// own re-issued tile loads, so only the save sits on the critical
// path. liveBytes is the dirty footprint; bandwidth is DRAM
// bytes/cycle; latency is the per-DMA-batch fixed cost.
func FlushCost(liveBytes uint64, bandwidthBytesPerCycle uint64, dmaLatency sim.Cycle, stats *sim.Stats) sim.Cycle {
	if liveBytes == 0 {
		return 0
	}
	if bandwidthBytesPerCycle == 0 {
		bandwidthBytesPerCycle = 1
	}
	cycles := sim.Cycle(liveBytes/bandwidthBytesPerCycle) + dmaLatency
	if stats != nil {
		// Save now + restore later: 2x total traffic.
		stats.Add(sim.CtrSpadFlushBytes, int64(2*liveBytes))
	}
	return cycles
}
