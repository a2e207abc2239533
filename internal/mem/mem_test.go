package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegionOverlapRejected(t *testing.T) {
	m := NewPhysical()
	if err := m.AddRegion(Region{Name: "a", Base: 0x1000, Size: 0x1000, Owner: Normal}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddRegion(Region{Name: "b", Base: 0x1800, Size: 0x1000, Owner: Normal}); err == nil {
		t.Fatal("overlapping region accepted")
	}
	if err := m.AddRegion(Region{Name: "c", Base: 0x2000, Size: 0x1000, Owner: Normal}); err != nil {
		t.Fatalf("adjacent region rejected: %v", err)
	}
}

func TestRegionZeroSizeAndWrapRejected(t *testing.T) {
	m := NewPhysical()
	if err := m.AddRegion(Region{Name: "z", Base: 0, Size: 0}); err == nil {
		t.Fatal("zero-size region accepted")
	}
	if err := m.AddRegion(Region{Name: "w", Base: ^PhysAddr(0) - 10, Size: 100}); err == nil {
		t.Fatal("wrapping region accepted")
	}
}

func newTestMem(t *testing.T) *Physical {
	t.Helper()
	m := NewPhysical()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.AddRegion(Region{Name: "normal", Base: 0x8000_0000, Size: 0x1000_0000, Owner: Normal, CrossPerm: PermRW}))
	must(m.AddRegion(Region{Name: "secure", Base: 0x9000_0000, Size: 0x0800_0000, Owner: Secure}))
	return m
}

func TestCheckAccessWorldPartition(t *testing.T) {
	m := newTestMem(t)
	// Normal world can use normal memory.
	if err := m.CheckAccess(Normal, 0x8000_0000, 64, PermRW); err != nil {
		t.Fatalf("normal->normal denied: %v", err)
	}
	// Normal world cannot touch secure memory.
	if err := m.CheckAccess(Normal, 0x9000_0000, 64, PermRead); err == nil {
		t.Fatal("normal->secure read allowed")
	}
	// Secure world can touch both (normal region grants CrossPerm RW).
	if err := m.CheckAccess(Secure, 0x9000_0000, 64, PermRW); err != nil {
		t.Fatalf("secure->secure denied: %v", err)
	}
	if err := m.CheckAccess(Secure, 0x8000_0000, 64, PermRW); err != nil {
		t.Fatalf("secure->normal denied: %v", err)
	}
	// Unmapped space is denied for everyone.
	if err := m.CheckAccess(Secure, 0x100, 4, PermRead); err == nil {
		t.Fatal("unmapped access allowed")
	}
}

func TestCheckAccessSpansRegionBoundary(t *testing.T) {
	m := NewPhysical()
	if err := m.AddRegion(Region{Name: "lo", Base: 0x1000, Size: 0x1000, Owner: Normal}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddRegion(Region{Name: "hi", Base: 0x2000, Size: 0x1000, Owner: Secure}); err != nil {
		t.Fatal(err)
	}
	// A normal-world access crossing from its own region into a secure
	// region must be denied even though it starts legally.
	if err := m.CheckAccess(Normal, 0x1800, 0x1000, PermRead); err == nil {
		t.Fatal("access crossing into secure region allowed")
	}
	// Adjacent same-owner regions should pass a spanning check.
	if err := m.AddRegion(Region{Name: "hi2", Base: 0x3000, Size: 0x1000, Owner: Secure}); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckAccess(Secure, 0x2800, 0x1000, PermRead); err != nil {
		t.Fatalf("secure spanning access denied: %v", err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := NewPhysical()
	data := []byte("the quick brown fox jumps over the lazy dog")
	// Straddle a page boundary on purpose.
	addr := PhysAddr(PageSize - 10)
	m.Write(addr, data)
	got := make([]byte, len(data))
	m.Read(addr, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %q", got)
	}
}

func TestReadUnwrittenIsZero(t *testing.T) {
	m := NewPhysical()
	buf := []byte{1, 2, 3, 4}
	m.Read(0x5000, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatalf("unwritten memory read nonzero: %v", buf)
		}
	}
}

func TestU64RoundTrip(t *testing.T) {
	m := NewPhysical()
	m.WriteU64(PageSize-3, 0xdeadbeefcafebabe)
	if got := m.ReadU64(PageSize - 3); got != 0xdeadbeefcafebabe {
		t.Fatalf("u64 round trip = %#x", got)
	}
}

func TestZero(t *testing.T) {
	m := NewPhysical()
	m.Write(100, bytes.Repeat([]byte{0xff}, 3*PageSize))
	m.Zero(100, 3*PageSize)
	buf := make([]byte, 3*PageSize)
	m.Read(100, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("Zero left nonzero bytes")
		}
	}
}

func TestPageAlign(t *testing.T) {
	if PageAlignDown(PageSize+1) != PageSize {
		t.Fatal("PageAlignDown")
	}
	if PageAlignUp(PageSize+1) != 2*PageSize {
		t.Fatal("PageAlignUp")
	}
	if PageAlignUp(PageSize) != PageSize {
		t.Fatal("PageAlignUp exact")
	}
}

func TestPermString(t *testing.T) {
	if PermRW.String() != "rw" || PermRead.String() != "r-" || Perm(0).String() != "--" {
		t.Fatal("Perm formatting")
	}
}

func TestContigAllocBasic(t *testing.T) {
	a := NewContigAlloc(0x1000, 0x10000)
	p1, err := a.Alloc(0x100, 0x100)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(p1)%0x100 != 0 {
		t.Fatalf("misaligned allocation %#x", uint64(p1))
	}
	p2, err := a.Alloc(0x100, 0x100)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("overlapping allocations")
	}
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p1); err == nil {
		t.Fatal("double free accepted")
	}
	if err := a.Free(p2); err != nil {
		t.Fatal(err)
	}
	if a.FreeBytes() != 0x10000 {
		t.Fatalf("free bytes = %#x after freeing everything", a.FreeBytes())
	}
	if a.LargestFree() != 0x10000 {
		t.Fatal("free spans not coalesced")
	}
}

func TestContigAllocExhaustion(t *testing.T) {
	a := NewContigAlloc(0, 0x1000)
	if _, err := a.Alloc(0x1000, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1, 1); err == nil {
		t.Fatal("allocation from exhausted pool succeeded")
	}
}

func TestContigAllocBadArgs(t *testing.T) {
	a := NewContigAlloc(0, 0x1000)
	if _, err := a.Alloc(0, 1); err == nil {
		t.Fatal("zero-size alloc accepted")
	}
	if _, err := a.Alloc(16, 3); err == nil {
		t.Fatal("non-power-of-two alignment accepted")
	}
	if err := a.Free(0x999); err == nil {
		t.Fatal("free of unallocated address accepted")
	}
}

// Property: under random alloc/free sequences, live allocations never
// overlap, stay in range, and byte accounting holds.
func TestContigAllocInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewContigAlloc(0x4000, 1<<16)
		var live []PhysAddr
		for i := 0; i < 200; i++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(live))
				if a.Free(live[i]) != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
				continue
			}
			size := uint64(rng.Intn(2048) + 1)
			align := uint64(1) << uint(rng.Intn(8))
			p, err := a.Alloc(size, align)
			if err != nil {
				continue // pool full is fine
			}
			if uint64(p)%align != 0 {
				return false
			}
			live = append(live, p)
		}
		allocs := a.Allocations()
		var used uint64
		for i, r := range allocs {
			used += r.Size
			if uint64(r.Base) < 0x4000 || uint64(r.Base)+r.Size > 0x4000+1<<16 {
				return false
			}
			if i > 0 && allocs[i-1].End() > r.Base {
				return false // overlap
			}
		}
		return used == a.UsedBytes() && used+a.FreeBytes() == 1<<16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
