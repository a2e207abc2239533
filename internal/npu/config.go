// Package npu assembles the NPU itself: systolic-array cores with ID
// state, the op-level ISA the compiler lowers workloads into, a
// double-buffered execution engine, and the multi-core fabric
// connecting cores over the NoC. It is a Gemmini/AuRORA-style design
// (§VI-A) with the sNPU security extensions attached.
package npu

import (
	"repro/internal/dma"
	"repro/internal/sim"
)

// Config is the SoC configuration of Table II.
type Config struct {
	// SystolicDim is the systolic array dimension per tile (16).
	SystolicDim int
	// SpadBytes is the scratchpad capacity per tile (256 KB).
	SpadBytes int
	// SpadLineBytes is the input/output scratchpad wordline (128 b).
	SpadLineBytes int
	// AccLineBytes is the accumulator wordline (512 b).
	AccLineBytes int
	// Tiles is the number of accelerator tiles (cores) in the SoC.
	Tiles int
	// MeshW and MeshH arrange the cores on the NoC.
	MeshW, MeshH int
	// DRAMBytesPerCycle is the memory bandwidth (16 GB/s at 1 GHz).
	DRAMBytesPerCycle uint64
	// DRAMLatency is the fixed per-batch DRAM access latency.
	DRAMLatency sim.Cycle
	// Isolated enables the sNPU scratchpad/NoC protections; false is
	// the unprotected baseline.
	Isolated bool
	// Peephole enables NoC authentication.
	Peephole bool
	// IDBits is the per-line domain-tag width (1 = two worlds).
	IDBits int
	// UseL2 routes DMA traffic through the shared L2 (Table II: 2 MB,
	// 8 banks). Off by default: the headline experiments model the
	// NPU's DMA as bypassing the cache hierarchy, as Gemmini's does;
	// the L2 ablation bench turns it on.
	UseL2 bool
}

// DefaultHangWatchdog is the per-core hang-detection latency: how long
// a wedged core runs undetected before the per-core watchdog fires.
const DefaultHangWatchdog sim.Cycle = 50000

// DefaultConfig mirrors Table II: 16-wide systolic arrays, 256 KB
// scratchpads, 10 tiles (arranged 5x2), 16 GB/s DRAM at 1 GHz.
func DefaultConfig() Config {
	return Config{
		SystolicDim:       16,
		SpadBytes:         256 << 10,
		SpadLineBytes:     16,
		AccLineBytes:      64,
		Tiles:             10,
		MeshW:             5,
		MeshH:             2,
		DRAMBytesPerCycle: 16,
		DRAMLatency:       100,
		Isolated:          true,
		Peephole:          true,
		IDBits:            1,
	}
}

// DMAConfig derives the DMA engine parameters.
func (c Config) DMAConfig() dma.Config {
	return dma.Config{BytesPerCycle: c.DRAMBytesPerCycle, RequestLatency: c.DRAMLatency}
}

// SpadLines is the wordline count of one tile's scratchpad.
func (c Config) SpadLines() int { return c.SpadBytes / c.SpadLineBytes }

// KVSpadLines is the wordline count of one tile's KV partition: the
// top quarter of the scratchpad, reserved by the monitor for resident
// KV-cache windows that survive context switches (monitor/kv.go).
func (c Config) KVSpadLines() int { return c.SpadLines() / 4 }

// PeakMACsPerCycle is the full-SoC peak compute rate.
func (c Config) PeakMACsPerCycle() int64 {
	return int64(c.Tiles) * int64(c.SystolicDim) * int64(c.SystolicDim)
}
