package iommu

import (
	"repro/internal/mem"
	"repro/internal/sim"
)

// IOTLBEntry caches one translation. ASID tags the owning address
// space (stream ID) so entries from different tasks can coexist; an
// untagged TLB treats every entry as ASID 0 and must flush on switch.
type IOTLBEntry struct {
	VPN    uint64
	ASID   int
	PTE    PTE
	valid  bool
	lastAt uint64 // LRU timestamp
	parity uint8  // stamped at fill when parity protection is on
}

// IOTLB is a fully-associative translation cache with true-LRU
// replacement. The paper evaluates 4/8/16/32-entry configurations
// (Fig. 13); small TLBs thrash on tile-strided NPU access patterns.
type IOTLB struct {
	entries []IOTLBEntry
	tick    uint64
	parity  bool
	stats   *sim.Stats

	Lookups      uint64
	Hits         uint64
	Misses       uint64
	Flushes      uint64
	ParityErrors uint64
}

// NewIOTLB returns a TLB with n entries.
func NewIOTLB(n int) *IOTLB {
	return &IOTLB{entries: make([]IOTLBEntry, n)}
}

// EnableParity arms per-entry parity: fills stamp a parity byte over
// the tag and translation, lookups verify it and turn a corrupted
// entry into a miss (invalidate + re-walk) instead of a silent
// mistranslation.
func (t *IOTLB) EnableParity() { t.parity = true }

// Size reports the configured entry count.
func (t *IOTLB) Size() int { return len(t.entries) }

// entryParity folds the protected fields of an entry into one byte:
// the XOR of every byte of the VPN, the ASID and the PPN, then the
// permission bits and 0x80 for a secure page. XOR is linear, so the
// three words are XORed first and the one word folds to a byte in
// three shifts.
func entryParity(vpn uint64, asid int, pte PTE) uint8 {
	v := vpn ^ uint64(asid) ^ pte.PPN
	v ^= v >> 32
	v ^= v >> 16
	v ^= v >> 8
	p := uint8(v) ^ uint8(pte.Perm)
	if pte.Secure {
		p ^= 0x80
	}
	return p
}

// Lookup searches the TLB for the page containing va under the given
// address-space tag (pass 0 for an untagged TLB). A parity-protected
// entry that fails verification is invalidated and reported as a miss
// — the caller re-walks the page table, which is the recovery.
func (t *IOTLB) Lookup(asid int, va mem.VirtAddr) (PTE, bool) {
	t.tick++
	t.Lookups++
	vpn := uint64(va) / mem.PageSize
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.VPN == vpn && e.ASID == asid {
			if t.parity && e.parity != entryParity(e.VPN, e.ASID, e.PTE) {
				e.valid = false
				t.ParityErrors++
				t.stats.Inc(sim.CtrIOTLBParityErrors)
				break
			}
			e.lastAt = t.tick
			t.Hits++
			return e.PTE, true
		}
	}
	t.Misses++
	return PTE{}, false
}

// Insert fills the LRU (or first invalid) way with a translation.
func (t *IOTLB) Insert(asid int, va mem.VirtAddr, pte PTE) {
	if len(t.entries) == 0 {
		return
	}
	t.tick++
	vpn := uint64(va) / mem.PageSize
	victim := 0
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			victim = i
			break
		}
		if e.VPN == vpn && e.ASID == asid { // refresh existing entry
			victim = i
			break
		}
		if e.lastAt < t.entries[victim].lastAt {
			victim = i
		}
	}
	t.entries[victim] = IOTLBEntry{
		VPN: vpn, ASID: asid, PTE: pte, valid: true, lastAt: t.tick,
		parity: entryParity(vpn, asid, pte),
	}
}

// Corrupt flips one bit of a valid entry's physical page number
// without refreshing its parity — an SRAM upset in the TLB array. The
// victim entry is chosen deterministically by sel over the valid
// entries in way order. It reports whether any entry was hit.
func (t *IOTLB) Corrupt(sel uint64, bit uint8) bool {
	valid := t.Valid()
	if valid == 0 {
		return false
	}
	target := int(sel % uint64(valid))
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			continue
		}
		if target == 0 {
			e.PTE.PPN ^= 1 << uint(bit%64)
			return true
		}
		target--
	}
	return false
}

// FlushAll invalidates every entry (on context switch / world switch —
// the "ping-pong" cost the paper cites).
func (t *IOTLB) FlushAll() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
	t.Flushes++
}

// Valid reports how many entries currently hold translations.
func (t *IOTLB) Valid() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].valid {
			n++
		}
	}
	return n
}
