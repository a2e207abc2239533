package mem

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/sim"
)

// SECDED ECC over 64-bit DRAM words: a (72,64) extended Hamming code —
// seven positional check bits plus one overall parity bit. Single-bit
// errors are corrected in place; double-bit errors are detected and
// fail closed. This is the standard server-DRAM code, and the smallest
// mechanism that turns "a cosmic ray flipped a weight" from silent
// corruption into either a logged correction or a clean abort.
//
// The Physical model does not store check bytes for every word (the
// simulator's corruption source is the fault injector, not the host).
// Instead InjectBitFlip snapshots the word's check byte as the writer
// left it, then damages the data; Scrub later runs the real
// SECDED decode against that stored check byte. Clean words never pay
// anything — the fast path is one map-length test.

// ECCCorrectionCycles is the memory-controller penalty per corrected
// word (the read-modify-write turnaround on the DRAM bus).
const ECCCorrectionCycles sim.Cycle = 8

// eccWordBits is the data word width the code protects.
const eccWordBits = 72 // 64 data + 7 positional check + 1 overall parity

// eccDataPos maps data bit i (0..63) to its codeword position
// (1-based, skipping power-of-two positions, which hold check bits).
var eccDataPos = func() [64]uint {
	var pos [64]uint
	p := uint(1)
	for i := 0; i < 64; i++ {
		p++
		for p&(p-1) == 0 { // skip powers of two
			p++
		}
		pos[i] = p
	}
	return pos
}()

// ECCEncode computes the 8-bit check byte for a 64-bit word: bits 0..6
// are the positional Hamming checks, bit 7 is the overall parity of
// the 71 other codeword bits.
func ECCEncode(word uint64) uint8 {
	var syndrome uint
	ones := 0
	for i := 0; i < 64; i++ {
		if word>>uint(i)&1 == 1 {
			syndrome ^= eccDataPos[i]
			ones++
		}
	}
	check := uint8(syndrome & 0x7f)
	// Overall parity covers data bits and positional check bits.
	parity := uint8(ones&1) ^ uint8(bits.OnesCount8(check)&1)
	return check | parity<<7
}

// ECCStatus classifies a decode.
type ECCStatus int

const (
	// ECCOK: the word is clean.
	ECCOK ECCStatus = iota
	// ECCCorrected: a single-bit error was corrected.
	ECCCorrected
	// ECCDetected: a double-bit error was detected (uncorrectable).
	ECCDetected
)

func (s ECCStatus) String() string {
	switch s {
	case ECCOK:
		return "ok"
	case ECCCorrected:
		return "corrected"
	default:
		return "uncorrectable"
	}
}

// ECCDecode checks a word against its stored check byte and returns
// the (possibly corrected) word and the decode status.
func ECCDecode(word uint64, check uint8) (uint64, ECCStatus) {
	fresh := ECCEncode(word)
	syndrome := uint(fresh^check) & 0x7f
	// Overall parity is recomputed over the received data bits plus the
	// STORED check bits (they sit in the codeword; they are not
	// recomputed on read) and compared to the stored parity bit. Each
	// flipped data bit then toggles the mismatch exactly once, which is
	// what makes odd-vs-even error counts separable.
	received := uint8(bits.OnesCount64(word)&1) ^ uint8(bits.OnesCount8(check&0x7f)&1)
	parityMismatch := received != check>>7
	switch {
	case syndrome == 0 && !parityMismatch:
		return word, ECCOK
	case syndrome == 0 && parityMismatch:
		// The overall parity bit itself flipped; data is intact.
		return word, ECCCorrected
	case parityMismatch:
		// Odd number of flipped bits with a nonzero syndrome: a single
		// error at codeword position `syndrome`. Correct it if it is a
		// data position (a flipped check bit leaves the data intact).
		for i, p := range eccDataPos {
			if p == syndrome {
				return word ^ 1<<uint(i), ECCCorrected
			}
		}
		return word, ECCCorrected // error in a stored check bit
	default:
		// Even number of errors: detectable, not correctable.
		return word, ECCDetected
	}
}

// ECCError reports an uncorrectable (multi-bit) DRAM error. The DMA
// engine fails the request closed when it sees one.
type ECCError struct {
	Addr PhysAddr
}

func (e *ECCError) Error() string {
	return fmt.Sprintf("mem: uncorrectable ECC error at %#x", uint64(e.Addr))
}

// faultyWord tracks a corrupted DRAM word: the check byte as the
// writer left it, so Scrub can run a real SECDED decode later.
type faultyWord struct {
	check uint8
	flips int
}

// EnableECC arms the SECDED model (the memory controller scrubs every
// DMA request through it). Without it, injected bit flips persist
// silently — the non-ECC baseline.
func (m *Physical) EnableECC(stats *sim.Stats) {
	m.ecc = true
	m.eccStats = stats
}

// InjectBitFlip flips one bit of the 64-bit word containing addr. The
// first flip of a word snapshots its check byte (the code word the
// writer produced); later flips of the same word accumulate toward an
// uncorrectable error.
func (m *Physical) InjectBitFlip(addr PhysAddr, bit uint8) {
	word := addr &^ 7
	bit %= 64
	if m.faults == nil {
		m.faults = make(map[PhysAddr]*faultyWord)
	}
	fw, ok := m.faults[word]
	if !ok {
		fw = &faultyWord{check: ECCEncode(m.ReadU64(word))}
	}
	fw.flips++
	// The write-back below runs the normal Write path, which drops
	// fault tracking for overwritten words — reinstall the entry after.
	m.WriteU64(word, m.ReadU64(word)^1<<uint(bit))
	m.faults[word] = fw
}

// CorruptedWords reports how many words currently hold injected
// damage.
func (m *Physical) CorruptedWords() int { return len(m.faults) }

// Scrub runs the ECC decode over every corrupted word inside [addr,
// addr+size): single-bit errors are corrected in place and counted;
// an uncorrectable word returns an ECCError (the request must fail
// closed). With ECC disabled Scrub does nothing — the corruption
// flows to the consumer silently. Clean ranges cost one map-length
// check.
func (m *Physical) Scrub(addr PhysAddr, size uint64) (corrected int, err error) {
	if len(m.faults) == 0 || size == 0 {
		return 0, nil
	}
	if !m.ecc {
		return 0, nil
	}
	lo := addr &^ 7
	hi := (addr + PhysAddr(size) + 7) &^ 7
	var hit []PhysAddr
	for w := range m.faults {
		if w >= lo && w < hi {
			hit = append(hit, w)
		}
	}
	sort.Slice(hit, func(i, j int) bool { return hit[i] < hit[j] })
	for _, w := range hit {
		fw := m.faults[w]
		word, status := ECCDecode(m.ReadU64(w), fw.check)
		switch status {
		case ECCDetected:
			m.eccStats.Inc(sim.CtrECCUncorrectable)
			return corrected, &ECCError{Addr: w}
		case ECCCorrected:
			m.WriteU64(w, word)
			delete(m.faults, w)
			corrected++
			m.eccStats.Inc(sim.CtrECCCorrected)
		default:
			// The flips cancelled out; the word is clean again.
			delete(m.faults, w)
		}
	}
	return corrected, nil
}

// clearFaults drops fault tracking for words fully overwritten by a
// write (the writer's fresh data replaces the damaged word).
func (m *Physical) clearFaults(addr PhysAddr, size uint64) {
	if len(m.faults) == 0 || size == 0 {
		return
	}
	first := addr &^ 7
	if first < addr {
		first += 8 // partially overwritten word keeps its damage
	}
	for w := first; w+8 <= addr+PhysAddr(size); w += 8 {
		delete(m.faults, w)
	}
}
