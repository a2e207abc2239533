// Package energy is a first-order energy model for the simulated SoC,
// in the style of architecture-paper energy proxies: fixed
// picojoule-per-event costs multiplied by the hardware counters the
// simulation already collects. The absolute numbers use standard
// published per-operation estimates for a ~28 nm-class SoC; the claims
// built on them are relative (e.g., §VI Fig. 13(b)'s point that
// per-packet
// IOTLB lookups burn measurable power that per-request Guarder checks
// do not).
package energy

import (
	"fmt"

	"repro/internal/sim"
)

// CostsPJ is the per-event energy table, in picojoules.
type CostsPJ struct {
	// MAC is one int8 multiply-accumulate.
	MAC float64
	// DRAMByte is one byte moved to/from DRAM.
	DRAMByte float64
	// SpadByteAccess is one byte read or written in scratchpad SRAM.
	SpadByteAccess float64
	// IOTLBLookup is one fully-associative IOTLB CAM match.
	IOTLBLookup float64
	// PageWalkAccess is one page-walker memory access.
	PageWalkAccess float64
	// GuarderCheck is one range compare in the checking/translation
	// registers.
	GuarderCheck float64
	// NoCFlitHop is one flit traversing one router+link.
	NoCFlitHop float64
}

// DefaultCosts carries the standard rule-of-thumb values: DRAM access
// dominates (~10-20 pJ/byte), SRAM is ~10x cheaper, an int8 MAC is a
// fraction of a pJ, a CAM match costs about as much as a small SRAM
// read, and a register-range compare is an order of magnitude below
// that.
func DefaultCosts() CostsPJ {
	return CostsPJ{
		MAC:            0.2,
		DRAMByte:       15,
		SpadByteAccess: 1.2,
		IOTLBLookup:    6,
		PageWalkAccess: 60,
		GuarderCheck:   0.4,
		NoCFlitHop:     2,
	}
}

// Breakdown is the per-component energy of one run, in microjoules.
type Breakdown struct {
	ComputeUJ  float64
	DRAMUJ     float64
	CheckingUJ float64 // access-control: IOTLB lookups + walks, or Guarder checks
	NoCUJ      float64
}

// Total sums the components.
func (b Breakdown) Total() float64 {
	return b.ComputeUJ + b.DRAMUJ + b.CheckingUJ + b.NoCUJ
}

// CheckingShare is the access-control fraction of total energy.
func (b Breakdown) CheckingShare() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return b.CheckingUJ / t
}

func (b Breakdown) String() string {
	return fmt.Sprintf("compute=%.1fuJ dram=%.1fuJ checking=%.3fuJ noc=%.1fuJ",
		b.ComputeUJ, b.DRAMUJ, b.CheckingUJ, b.NoCUJ)
}

const pjToUJ = 1e-6

// FromCounters converts a run's hardware counters into a Breakdown.
// DRAM energy is charged on every byte the DMA engines move. The
// walker's DRAM traffic is charged under checking (it exists only to
// serve translations).
func FromCounters(c CostsPJ, stats map[string]int64) Breakdown {
	var b Breakdown
	b.ComputeUJ = float64(stats[sim.CtrComputeMACs]) * c.MAC * pjToUJ
	b.DRAMUJ = float64(stats[sim.CtrDMABytes]) * c.DRAMByte * pjToUJ
	// Access control: per-packet IOTLB CAM matches + page walks, or
	// per-request Guarder range checks — whichever the run used.
	b.CheckingUJ = float64(stats[sim.CtrIOTLBLookups])*c.IOTLBLookup*pjToUJ +
		float64(stats[sim.CtrPageWalks])*3*c.PageWalkAccess*pjToUJ +
		float64(stats[sim.CtrGuarderChecks])*c.GuarderCheck*pjToUJ
	b.NoCUJ = float64(stats[sim.CtrNoCFlits]) * c.NoCFlitHop * pjToUJ
	return b
}
