package mem

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Region describes a contiguous physical range with an owning world
// and an access-permission mask for the *other* world. Accesses from
// the owning world are always allowed; cross-world accesses must be
// covered by CrossPerm (normally zero for secure regions).
type Region struct {
	Name      string
	Base      PhysAddr
	Size      uint64
	Owner     World
	CrossPerm Perm
}

// End returns the first address past the region.
func (r Region) End() PhysAddr { return r.Base + PhysAddr(r.Size) }

// Contains reports whether [addr, addr+size) lies fully inside r.
func (r Region) Contains(addr PhysAddr, size uint64) bool {
	return addr >= r.Base && addr+PhysAddr(size) <= r.End() && addr+PhysAddr(size) >= addr
}

// AccessError describes a denied physical memory access.
type AccessError struct {
	Addr   PhysAddr
	Size   uint64
	World  World
	Need   Perm
	Reason string
}

func (e *AccessError) Error() string {
	return fmt.Sprintf("mem: %s access [%#x,+%d) by %s world denied: %s",
		e.Need, uint64(e.Addr), e.Size, e.World, e.Reason)
}

// Physical is the SoC's physical memory: a sparse page-granular byte
// store plus a region map used for world-partition checks. The region
// map is the "memory protection engine" of the paper's TCB — the
// hardware that makes TrustZone-style secure memory real.
type Physical struct {
	pages   map[uint64][]byte // page index -> 4KB backing
	regions []Region          // sorted by Base, non-overlapping

	// SECDED ECC state (ecc.go): corrupted-word tracking plus the
	// enable flag. Empty unless a fault plan has injected damage.
	ecc      bool
	eccStats *sim.Stats
	faults   map[PhysAddr]*faultyWord
}

// NewPhysical returns an empty physical memory with no regions.
func NewPhysical() *Physical {
	return &Physical{pages: make(map[uint64][]byte)}
}

// Reset power-cycles the memory for arena-style reuse: every backing
// page is dropped (reads return zero again), injected ECC damage and
// the ECC enable flag are cleared. The region map — the SoC's static
// partition, fixed at boot — is kept, which is exactly what makes a
// pooled reuse cheaper than a rebuild. Dropping pages rather than
// zeroing them keeps reset O(touched pages) and guarantees no prior
// tenant's bytes survive.
func (m *Physical) Reset() {
	clear(m.pages)
	m.ecc = false
	m.eccStats = nil
	m.faults = nil
}

// AddRegion registers a region. Regions must not overlap; overlapping
// registration returns an error.
func (m *Physical) AddRegion(r Region) error {
	if r.Size == 0 {
		return fmt.Errorf("mem: region %q has zero size", r.Name)
	}
	if r.Base+PhysAddr(r.Size) < r.Base {
		return fmt.Errorf("mem: region %q wraps the address space", r.Name)
	}
	for _, ex := range m.regions {
		if r.Base < ex.End() && ex.Base < r.End() {
			return fmt.Errorf("mem: region %q overlaps %q", r.Name, ex.Name)
		}
	}
	m.regions = append(m.regions, r)
	sort.Slice(m.regions, func(i, j int) bool { return m.regions[i].Base < m.regions[j].Base })
	return nil
}

// FindRegion returns the region containing addr, if any.
func (m *Physical) FindRegion(addr PhysAddr) (Region, bool) {
	i := sort.Search(len(m.regions), func(i int) bool { return m.regions[i].End() > addr })
	if i < len(m.regions) && m.regions[i].Contains(addr, 1) {
		return m.regions[i], true
	}
	return Region{}, false
}

// CheckAccess verifies that the given world may access [addr,
// addr+size) with permission need. The range must lie within mapped
// regions; cross-world access needs the region's CrossPerm.
func (m *Physical) CheckAccess(world World, addr PhysAddr, size uint64, need Perm) error {
	if size == 0 {
		return nil
	}
	cur := addr
	remaining := size
	for remaining > 0 {
		r, ok := m.FindRegion(cur)
		if !ok {
			return &AccessError{Addr: cur, Size: remaining, World: world, Need: need, Reason: "unmapped"}
		}
		if r.Owner != world && !r.CrossPerm.Has(need) {
			return &AccessError{Addr: cur, Size: remaining, World: world, Need: need,
				Reason: fmt.Sprintf("region %q owned by %s world", r.Name, r.Owner)}
		}
		span := uint64(r.End() - cur)
		if span >= remaining {
			return nil
		}
		cur = r.End()
		remaining -= span
	}
	return nil
}

func (m *Physical) page(idx uint64) []byte {
	p, ok := m.pages[idx]
	if !ok {
		p = make([]byte, PageSize)
		m.pages[idx] = p
	}
	return p
}

// Read copies len(dst) bytes starting at addr into dst. Unwritten
// memory reads as zero. Read does no permission checking: callers are
// hardware models that check via CheckAccess (or a Guarder/IOMMU)
// before touching data.
func (m *Physical) Read(addr PhysAddr, dst []byte) {
	off := uint64(addr)
	for len(dst) > 0 {
		pi := off / PageSize
		po := off % PageSize
		n := copy(dst, m.page(pi)[po:])
		dst = dst[n:]
		off += uint64(n)
	}
}

// Write copies src into memory starting at addr. Fresh data replaces
// any injected damage in fully overwritten words.
func (m *Physical) Write(addr PhysAddr, src []byte) {
	m.clearFaults(addr, uint64(len(src)))
	off := uint64(addr)
	for len(src) > 0 {
		pi := off / PageSize
		po := off % PageSize
		n := copy(m.page(pi)[po:], src)
		src = src[n:]
		off += uint64(n)
	}
}

// ReadU64 reads a little-endian uint64 at addr.
func (m *Physical) ReadU64(addr PhysAddr) uint64 {
	var b [8]byte
	m.Read(addr, b[:])
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// WriteU64 writes a little-endian uint64 at addr.
func (m *Physical) WriteU64(addr PhysAddr, v uint64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	m.Write(addr, b[:])
}

// Zero clears [addr, addr+size).
func (m *Physical) Zero(addr PhysAddr, size uint64) {
	var zeros [PageSize]byte
	for size > 0 {
		n := uint64(PageSize)
		if n > size {
			n = size
		}
		m.Write(addr, zeros[:n])
		addr += PhysAddr(n)
		size -= n
	}
}
