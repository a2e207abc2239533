package energy

import (
	"testing"

	"repro/internal/sim"
)

func TestFromCountersComponents(t *testing.T) {
	c := DefaultCosts()
	stats := map[string]int64{
		sim.CtrComputeMACs:   1_000_000,
		sim.CtrDMABytes:      1_000_000,
		sim.CtrIOTLBLookups:  10_000,
		sim.CtrPageWalks:     100,
		sim.CtrGuarderChecks: 0,
		sim.CtrNoCFlits:      5_000,
	}
	b := FromCounters(c, stats)
	if b.ComputeUJ <= 0 || b.DRAMUJ <= 0 || b.CheckingUJ <= 0 || b.NoCUJ <= 0 {
		t.Fatalf("zero components: %+v", b)
	}
	// DRAM dominates compute for equal counts (15 pJ/B vs 0.2 pJ/MAC).
	if b.DRAMUJ <= b.ComputeUJ {
		t.Fatalf("DRAM (%v) not above compute (%v)", b.DRAMUJ, b.ComputeUJ)
	}
	if tot := b.Total(); tot <= b.DRAMUJ {
		t.Fatalf("total %v not above largest component", tot)
	}
	if s := b.CheckingShare(); s <= 0 || s >= 1 {
		t.Fatalf("checking share = %v", s)
	}
	if b.String() == "" {
		t.Fatal("String")
	}
}

func TestEmptyCounters(t *testing.T) {
	b := FromCounters(DefaultCosts(), map[string]int64{})
	if b.Total() != 0 || b.CheckingShare() != 0 {
		t.Fatalf("empty run has energy: %+v", b)
	}
}

// The headline relative claim: for the same request stream, per-packet
// IOTLB checking burns far more than per-request Guarder checking.
func TestIOMMUCheckingCostsMoreThanGuarder(t *testing.T) {
	c := DefaultCosts()
	// One 4 KB DMA request: 64 packets -> 64 CAM lookups + 1 walk for
	// the IOMMU, or a single range check for the Guarder.
	iommu := FromCounters(c, map[string]int64{
		sim.CtrIOTLBLookups: 64,
		sim.CtrPageWalks:    1,
	})
	guarder := FromCounters(c, map[string]int64{
		sim.CtrGuarderChecks: 1,
	})
	if iommu.CheckingUJ < 100*guarder.CheckingUJ {
		t.Fatalf("IOMMU checking (%v uJ) not >> Guarder (%v uJ)",
			iommu.CheckingUJ, guarder.CheckingUJ)
	}
}
