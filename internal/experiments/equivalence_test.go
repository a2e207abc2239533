package experiments

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/guarder"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xlate"
)

// Property: for the same VA→PA mapping, the IOMMU and the Guarder
// translate every in-range request to the SAME physical address (the
// mechanisms differ in cost and granularity, never in outcome), and
// both deny every out-of-range request.
func TestGuarderIOMMUTranslationEquivalence(t *testing.T) {
	const (
		vbase = mem.VirtAddr(0x20_0000)
		pbase = mem.PhysAddr(0x8800_0000)
		size  = uint64(1 << 20)
	)
	stats := sim.NewStats()
	soc, err := NewSoC(npu.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	u := iommu.New(iommu.DefaultConfig(32), stats)
	if err := u.Table().MapRange(vbase, pbase, size, mem.PermRW, false); err != nil {
		t.Fatal(err)
	}
	g := guarder.NewDefault(stats)
	sec := soc.Machine.SecureContext()
	if err := g.SetTransReg(sec, 0, guarder.TransReg{VBase: vbase, PBase: pbase, Size: size, Valid: true}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetCheckReg(sec, 0, guarder.CheckReg{Base: pbase, Size: size, Perm: mem.PermRW, World: mem.Normal, Valid: true}); err != nil {
		t.Fatal(err)
	}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 60; i++ {
			off := uint64(rng.Intn(int(size + size/4))) // some out of range
			bytes := uint64(rng.Intn(4096) + 1)
			req := xlate.Request{
				VA: vbase + mem.VirtAddr(off), Bytes: bytes,
				Need: mem.PermRead, World: mem.Normal,
			}
			gres, gerr := g.Translate(req, 0)
			ures, uerr := u.Translate(req, 0)
			inRange := off+bytes <= size
			if inRange {
				if gerr != nil || uerr != nil {
					return false
				}
				if gres.PA != ures.PA {
					return false
				}
			} else {
				// Both must refuse (the IOMMU faults on the unmapped
				// page; the Guarder finds no covering register).
				if gerr == nil || uerr == nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: running any of the six models under any mechanism yields
// the same DMA byte counts — access control must never change WHAT
// moves, only when.
func TestMechanismsMoveIdenticalBytes(t *testing.T) {
	w, err := workload.Lookup("yololite")
	if err != nil {
		t.Fatal(err)
	}
	var ref int64
	for _, mech := range Fig13Mechanisms() {
		_, stats, err := RunContended(w, mech, npu.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", mech.Name, err)
		}
		bytes := stats[sim.CtrDMABytes]
		if ref == 0 {
			ref = bytes
		} else if bytes != ref {
			t.Fatalf("%s moved %d bytes, baseline moved %d", mech.Name, bytes, ref)
		}
	}
}

// A contended IOMMU cell exports non-zero IOTLB hits and misses, and
// every miss is a page walk (Fig. 13's IOTLB metrics).
func TestContendedIOTLBHitsAndMisses(t *testing.T) {
	w, err := workload.Lookup("yololite")
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := RunContended(w, Mechanism{Name: "iotlb-16", IOTLBEntries: 16}, npu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := stats[sim.CtrIOTLBHits], stats[sim.CtrIOTLBMisses]
	if hits == 0 || misses == 0 {
		t.Fatalf("iotlb.hits=%d iotlb.misses=%d, want both counted", hits, misses)
	}
	if walks := stats[sim.CtrPageWalks]; misses != walks {
		t.Fatalf("iotlb.misses=%d, iommu.pagewalks=%d", misses, walks)
	}
}
