package iommu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/xlate"
)

func TestPageTableMapWalk(t *testing.T) {
	pt := NewPageTable()
	if err := pt.Map(0x1000, 0x8000_1000, mem.PermRW, false); err != nil {
		t.Fatal(err)
	}
	pte, accesses, err := pt.Walk(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if accesses != 3 {
		t.Fatalf("walk accesses = %d, want 3 (levels)", accesses)
	}
	if pte.PPN != 0x8000_1000/mem.PageSize {
		t.Fatalf("ppn = %#x", pte.PPN)
	}
	if _, _, err := pt.Walk(0x2000); err == nil {
		t.Fatal("walk of unmapped va succeeded")
	}
}

func TestPageTableUnalignedRejected(t *testing.T) {
	pt := NewPageTable()
	if err := pt.Map(0x1001, 0x8000_0000, mem.PermRead, false); err == nil {
		t.Fatal("unaligned va accepted")
	}
	if err := pt.Map(0x1000, 0x8000_0001, mem.PermRead, false); err == nil {
		t.Fatal("unaligned pa accepted")
	}
}

func TestPageTableMapRangeAndUnmap(t *testing.T) {
	pt := NewPageTable()
	if err := pt.MapRange(0x10000, 0x8000_0000, 3*mem.PageSize+100, mem.PermRW, false); err != nil {
		t.Fatal(err)
	}
	if pt.MappedPages() != 4 {
		t.Fatalf("mapped pages = %d, want 4", pt.MappedPages())
	}
	for i := 0; i < 4; i++ {
		pte, _, err := pt.Walk(mem.VirtAddr(0x10000 + i*mem.PageSize))
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		want := uint64(0x8000_0000+i*mem.PageSize) / mem.PageSize
		if pte.PPN != want {
			t.Fatalf("page %d ppn = %#x, want %#x", i, pte.PPN, want)
		}
	}
	pt.Unmap(0x10000)
	if pt.MappedPages() != 3 {
		t.Fatalf("mapped pages after unmap = %d", pt.MappedPages())
	}
	pt.Unmap(0x10000) // idempotent
	if pt.MappedPages() != 3 {
		t.Fatal("double unmap changed count")
	}
}

func TestIOTLBHitMiss(t *testing.T) {
	tlb := NewIOTLB(2)
	if _, hit := tlb.Lookup(0, 0x1000); hit {
		t.Fatal("empty TLB hit")
	}
	tlb.Insert(0, 0x1000, PTE{PPN: 1, Valid: true})
	if pte, hit := tlb.Lookup(0, 0x1234); !hit || pte.PPN != 1 {
		t.Fatal("same-page lookup missed")
	}
	if tlb.Hits != 1 || tlb.Misses != 1 || tlb.Lookups != 2 {
		t.Fatalf("counters hits=%d misses=%d lookups=%d", tlb.Hits, tlb.Misses, tlb.Lookups)
	}
}

func TestIOTLBLRUEviction(t *testing.T) {
	tlb := NewIOTLB(2)
	tlb.Insert(0, 0x1000, PTE{PPN: 1, Valid: true})
	tlb.Insert(0, 0x2000, PTE{PPN: 2, Valid: true})
	tlb.Lookup(0, 0x1000)                           // touch page 1: page 2 is now LRU
	tlb.Insert(0, 0x3000, PTE{PPN: 3, Valid: true}) // evicts page 2
	if _, hit := tlb.Lookup(0, 0x1000); !hit {
		t.Fatal("MRU entry evicted")
	}
	if _, hit := tlb.Lookup(0, 0x2000); hit {
		t.Fatal("LRU entry survived")
	}
	if _, hit := tlb.Lookup(0, 0x3000); !hit {
		t.Fatal("new entry missing")
	}
}

func TestIOTLBFlush(t *testing.T) {
	tlb := NewIOTLB(4)
	tlb.Insert(0, 0x1000, PTE{PPN: 1, Valid: true})
	tlb.FlushAll()
	if tlb.Valid() != 0 {
		t.Fatal("flush left valid entries")
	}
	if tlb.Flushes != 1 {
		t.Fatal("flush not counted")
	}
}

func TestIOTLBInsertRefreshesDuplicate(t *testing.T) {
	tlb := NewIOTLB(2)
	tlb.Insert(0, 0x1000, PTE{PPN: 1, Valid: true})
	tlb.Insert(0, 0x1000, PTE{PPN: 9, Valid: true})
	if tlb.Valid() != 1 {
		t.Fatalf("duplicate insert grew TLB: valid=%d", tlb.Valid())
	}
	if pte, _ := tlb.Lookup(0, 0x1000); pte.PPN != 9 {
		t.Fatal("duplicate insert did not refresh PTE")
	}
}

// Property: the fixed-capacity IOTLB behaves like a reference LRU map.
func TestIOTLBMatchesReferenceLRU(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const ways = 4
		tlb := NewIOTLB(ways)
		type refEntry struct {
			ppn  uint64
			last int
		}
		ref := map[uint64]*refEntry{}
		tick := 0
		for i := 0; i < 300; i++ {
			vpn := uint64(rng.Intn(12))
			va := mem.VirtAddr(vpn * mem.PageSize)
			tick++
			pte, hit := tlb.Lookup(0, va)
			re, refHit := ref[vpn]
			if hit != refHit {
				return false
			}
			if hit {
				if pte.PPN != re.ppn {
					return false
				}
				re.last = tick
				continue
			}
			tick++
			newPPN := uint64(rng.Intn(1 << 20))
			tlb.Insert(0, va, PTE{PPN: newPPN, Valid: true})
			if len(ref) == ways {
				var victim uint64
				minLast := int(^uint(0) >> 1)
				for k, v := range ref {
					if v.last < minLast {
						minLast = v.last
						victim = k
					}
				}
				delete(ref, victim)
			}
			ref[vpn] = &refEntry{ppn: newPPN, last: tick}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func newIOMMU(t *testing.T, entries int) (*IOMMU, *sim.Stats) {
	t.Helper()
	stats := sim.NewStats()
	u := New(DefaultConfig(entries), stats)
	if err := u.Table().MapRange(0x10000, 0x8001_0000, 64*mem.PageSize, mem.PermRW, false); err != nil {
		t.Fatal(err)
	}
	if err := u.Table().MapRange(0x9000_0000, 0x9000_0000, 16*mem.PageSize, mem.PermRW, true); err != nil {
		t.Fatal(err)
	}
	return u, stats
}

func TestIOMMUTranslateBasic(t *testing.T) {
	u, _ := newIOMMU(t, 8)
	res, err := u.Translate(xlate.Request{VA: 0x10040, Bytes: 128, Need: mem.PermRead, World: mem.Normal}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PA != 0x8001_0040 {
		t.Fatalf("pa = %#x", uint64(res.PA))
	}
	if res.Stall == 0 {
		t.Fatal("first touch should pay a walk stall")
	}
	// Second access to the same page hits the TLB: no stall.
	res2, err := u.Translate(xlate.Request{VA: 0x10000, Bytes: 64, Need: mem.PermRead, World: mem.Normal}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stall != 0 {
		t.Fatalf("TLB hit stalled %d cycles", res2.Stall)
	}
}

func TestIOMMUPermissionAndWorldChecks(t *testing.T) {
	u, _ := newIOMMU(t, 8)
	if _, err := u.Translate(xlate.Request{VA: 0x10000, Bytes: 64, Need: mem.PermWrite, World: mem.Normal}, 0); err != nil {
		t.Fatalf("rw mapping denied write: %v", err)
	}
	// Unmapped VA faults.
	if _, err := u.Translate(xlate.Request{VA: 0xdead_0000, Bytes: 64, Need: mem.PermRead, World: mem.Normal}, 0); err == nil {
		t.Fatal("unmapped va translated")
	}
	// Normal world cannot use a secure (S-bit) mapping.
	if _, err := u.Translate(xlate.Request{VA: 0x9000_0000, Bytes: 64, Need: mem.PermRead, World: mem.Normal}, 0); err == nil {
		t.Fatal("normal world used secure mapping")
	}
	// Secure world can.
	if _, err := u.Translate(xlate.Request{VA: 0x9000_0000, Bytes: 64, Need: mem.PermRead, World: mem.Secure}, 0); err != nil {
		t.Fatalf("secure world denied its own mapping: %v", err)
	}
	// Empty requests are rejected.
	if _, err := u.Translate(xlate.Request{VA: 0x10000, Bytes: 0, Need: mem.PermRead, World: mem.Normal}, 0); err == nil {
		t.Fatal("empty request accepted")
	}
}

func TestIOMMUReadOnlyMapping(t *testing.T) {
	stats := sim.NewStats()
	u := New(DefaultConfig(8), stats)
	if err := u.Table().Map(0x5000, 0x8000_5000, mem.PermRead, false); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Translate(xlate.Request{VA: 0x5000, Bytes: 64, Need: mem.PermWrite, World: mem.Normal}, 0); err == nil {
		t.Fatal("write through read-only mapping allowed")
	}
}

func TestIOMMUContiguityGuard(t *testing.T) {
	stats := sim.NewStats()
	u := New(DefaultConfig(8), stats)
	// Two adjacent VAs mapping to non-adjacent PAs.
	if err := u.Table().Map(0x1000, 0x8000_0000, mem.PermRW, false); err != nil {
		t.Fatal(err)
	}
	if err := u.Table().Map(0x2000, 0x8010_0000, mem.PermRW, false); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Translate(xlate.Request{VA: 0x1800, Bytes: mem.PageSize, Need: mem.PermRead, World: mem.Normal}, 0); err == nil {
		t.Fatal("physically discontiguous request accepted")
	}
}

func TestIOMMUPacketCounting(t *testing.T) {
	u, stats := newIOMMU(t, 8)
	// 4KB request = 64 packets -> 64 IOTLB lookups (energy model).
	if _, err := u.Translate(xlate.Request{VA: 0x10000, Bytes: 4096, Need: mem.PermRead, World: mem.Normal}, 0); err != nil {
		t.Fatal(err)
	}
	if got := stats.Get(sim.CtrIOTLBLookups); got != 64 {
		t.Fatalf("iotlb lookups = %d, want 64", got)
	}
	if got := stats.Get(sim.CtrTranslations); got != 64 {
		t.Fatalf("translations = %d, want 64", got)
	}
}

func TestIOMMUContextSwitchFlushes(t *testing.T) {
	u, stats := newIOMMU(t, 8)
	req := xlate.Request{VA: 0x10000, Bytes: 64, Need: mem.PermRead, World: mem.Normal, TaskID: 1}
	if _, err := u.Translate(req, 0); err != nil {
		t.Fatal(err)
	}
	u.OnContextSwitch(1) // same task: no flush
	if stats.Get(sim.CtrIOTLBFlushes) != 0 {
		t.Fatal("same-task switch flushed")
	}
	u.OnContextSwitch(2)
	if stats.Get(sim.CtrIOTLBFlushes) != 1 {
		t.Fatal("task switch did not flush")
	}
	// After the flush the same page pays a walk again (ping-pong).
	res, err := u.Translate(req, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stall == 0 {
		t.Fatal("post-flush access did not re-walk")
	}
}

func TestIOMMUThrashingSmallTLB(t *testing.T) {
	// Touch more pages than the TLB holds, twice; a 4-entry TLB walks
	// every time, a 32-entry TLB hits on the second pass.
	run := func(entries int) sim.Cycle {
		u, _ := newIOMMU(t, entries)
		var stall sim.Cycle
		for pass := 0; pass < 2; pass++ {
			for p := 0; p < 16; p++ {
				res, err := u.Translate(xlate.Request{
					VA: mem.VirtAddr(0x10000 + p*mem.PageSize), Bytes: 64,
					Need: mem.PermRead, World: mem.Normal}, 0)
				if err != nil {
					t.Fatal(err)
				}
				stall += res.Stall
			}
		}
		return stall
	}
	small, big := run(4), run(32)
	if small <= big {
		t.Fatalf("4-entry TLB stall (%d) not worse than 32-entry (%d)", small, big)
	}
}

// sim.Stats carries the IOTLB's own hit and miss counts: every
// per-page lookup and every further packet of a request counts once,
// and every miss is one page walk.
func TestIOMMUCountsHitsAndMisses(t *testing.T) {
	u, stats := newIOMMU(t, 4)
	reqs := []xlate.Request{
		{VA: 0x10000, Bytes: 4096, Need: mem.PermRead, World: mem.Normal},     // miss + 63 packet hits
		{VA: 0x10040, Bytes: 128, Need: mem.PermRead, World: mem.Normal},      // hit + 1
		{VA: 0x10fc0, Bytes: 128, Need: mem.PermRead, World: mem.Normal},      // hit, miss (page cross)
		{VA: 0x20000, Bytes: 5 * 4096, Need: mem.PermRead, World: mem.Normal}, // 5 misses + 315 packet hits
		{VA: 0x10000, Bytes: 64, Need: mem.PermRead, World: mem.Normal},       // evicted by now: miss
	}
	for _, r := range reqs {
		if _, err := u.Translate(r, 0); err != nil {
			t.Fatal(err)
		}
	}
	tlb := u.TLB()
	hits, misses := stats.Get(sim.CtrIOTLBHits), stats.Get(sim.CtrIOTLBMisses)
	if hits == 0 || misses == 0 {
		t.Fatalf("iotlb.hits=%d iotlb.misses=%d, want both counted", hits, misses)
	}
	if uint64(hits) != tlb.Hits {
		t.Fatalf("iotlb.hits=%d, IOTLB.Hits=%d", hits, tlb.Hits)
	}
	if uint64(misses) != tlb.Misses || misses != stats.Get(sim.CtrPageWalks) {
		t.Fatalf("iotlb.misses=%d, IOTLB.Misses=%d, iommu.pagewalks=%d", misses, tlb.Misses, stats.Get(sim.CtrPageWalks))
	}
}
