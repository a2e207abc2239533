// Package mem models the SoC's physical memory system: a sparse
// physical memory backing store, a region map splitting DRAM into
// normal-world and secure-world areas (the two-world split of the
// paper's §II TEE background), permission checks, and the CMA-style
// contiguous allocator the NPU driver and the NPU Monitor carve their
// memory from.
package mem

import "fmt"

// PhysAddr is a physical byte address in the SoC address space.
type PhysAddr uint64

// VirtAddr is an NPU-visible virtual (IOVA) byte address.
type VirtAddr uint64

// World identifies the TrustZone-style hardware partition an access
// originates from or a region belongs to.
type World uint8

const (
	// Normal is the untrusted world: OS, driver, non-secure tasks.
	Normal World = iota
	// Secure is the trusted world: monitor, TEE OS, secure tasks.
	Secure
)

func (w World) String() string {
	switch w {
	case Normal:
		return "normal"
	case Secure:
		return "secure"
	default:
		return fmt.Sprintf("world(%d)", uint8(w))
	}
}

// Perm is a read/write permission bitmask.
type Perm uint8

const (
	PermRead Perm = 1 << iota
	PermWrite
)

// PermRW is the common read+write mask.
const PermRW = PermRead | PermWrite

func (p Perm) String() string {
	s := [2]byte{'-', '-'}
	if p&PermRead != 0 {
		s[0] = 'r'
	}
	if p&PermWrite != 0 {
		s[1] = 'w'
	}
	return string(s[:])
}

// Has reports whether p grants every bit in need.
func (p Perm) Has(need Perm) bool { return p&need == need }

// PageSize is the translation granule used by the IOMMU substrate.
const PageSize = 4096

// PageAlignDown rounds a down to a page boundary.
func PageAlignDown(a PhysAddr) PhysAddr { return a &^ (PageSize - 1) }

// PageAlignUp rounds a up to a page boundary.
func PageAlignUp(a PhysAddr) PhysAddr {
	return (a + PageSize - 1) &^ (PageSize - 1)
}

// PageWindow is the page-aligned window covering the VA span [lo, hi):
// its first page and its size in bytes.
func PageWindow(lo, hi VirtAddr) (base VirtAddr, size uint64) {
	base = VirtAddr(PageAlignDown(PhysAddr(lo)))
	return base, uint64(PageAlignUp(PhysAddr(hi)) - PhysAddr(base))
}
