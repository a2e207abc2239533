package iommu

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// parityByBytes is the byte-at-a-time fold entryParity replaced, kept
// as the reference its output must equal.
func parityByBytes(vpn uint64, asid int, pte PTE) uint8 {
	var p uint8
	for _, v := range []uint64{vpn, uint64(asid), pte.PPN} {
		for i := 0; i < 8; i++ {
			p ^= uint8(v >> (8 * i))
		}
	}
	p ^= uint8(pte.Perm)
	if pte.Secure {
		p ^= 0x80
	}
	return p
}

func TestEntryParityMatchesByteFold(t *testing.T) {
	check := func(vpn uint64, asid int, pte PTE) {
		t.Helper()
		if got, want := entryParity(vpn, asid, pte), parityByBytes(vpn, asid, pte); got != want {
			t.Fatalf("entryParity(%#x, %d, %+v) = %#x, want %#x", vpn, asid, pte, got, want)
		}
	}
	words := []uint64{0, 1, 0x80, 0xff, 0x100, 1 << 63, 0x0123456789abcdef, math.MaxUint64}
	asids := []int{0, 1, 0x7f, -1, -2, math.MinInt, math.MaxInt}
	for _, vpn := range words {
		for _, asid := range asids {
			for _, ppn := range words {
				for _, perm := range []mem.Perm{0, mem.PermRW, math.MaxUint8} {
					check(vpn, asid, PTE{PPN: ppn, Perm: perm, Valid: true})
					check(vpn, asid, PTE{PPN: ppn, Perm: perm, Secure: true, Valid: true})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		check(rng.Uint64(), int(rng.Uint64()), PTE{
			PPN: rng.Uint64(), Perm: mem.Perm(rng.Intn(256)), Secure: rng.Intn(2) == 1, Valid: true,
		})
	}
}
