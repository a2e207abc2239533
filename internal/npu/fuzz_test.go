package npu

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// fuzzReader reads little-endian fields from fuzz bytes; past the end
// every field reads as zero.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) next(n int) uint64 {
	var buf [8]byte
	k := copy(buf[:n], r.b)
	r.b = r.b[k:]
	return binary.LittleEndian.Uint64(buf[:])
}

// decodeProgram reads a program from fuzz bytes: a header byte (bit 0:
// literal ops follow, bit 1: nests follow, bits 2-4 and 5-7: one less
// than the number of each), the layer count, then the ops and nests in
// fixed-size records.
func decodeProgram(data []byte) *Program {
	r := &fuzzReader{b: data}
	head := r.next(1)
	p := &Program{Name: "fuzz", Layers: int(int8(r.next(1)))}
	if head&1 != 0 {
		for i := 0; i <= int(head>>2&7); i++ {
			flags := r.next(1)
			p.Ops = append(p.Ops, Op{
				Kind: OpKind(flags & 7), Tile: flags&8 != 0, Weight: flags&16 != 0,
				VA: mem.VirtAddr(r.next(8)), Bytes: r.next(8), Cycles: sim.Cycle(int32(r.next(4))),
				Layer: int(int8(r.next(1))), MACs: int64(r.next(2)),
			})
		}
	}
	if head&2 != 0 {
		for i := 0; i <= int(head>>5&7); i++ {
			dim := func() int { return int(int32(r.next(4))) }
			n := Nest{Layer: int(int8(r.next(1))), M: dim(), K: dim(), N: dim(), Mt: dim(), Kt: dim(), Nt: dim()}
			n.A, n.B, n.C = mem.VirtAddr(r.next(8)), mem.VirtAddr(r.next(8)), mem.VirtAddr(r.next(8))
			n.Dim = int(r.next(2))
			n.Eff = float64(math.Float32frombits(uint32(r.next(4))))
			flags := r.next(1)
			n.OnChipIn, n.OnChipOut = flags&1 != 0, flags&2 != 0
			p.Nests = append(p.Nests, n)
		}
	}
	return p
}

// encodeNests is decodeProgram's inverse for a program in nest form.
func encodeNests(p *Program) []byte {
	le := binary.LittleEndian
	b := []byte{2 | byte(len(p.Nests)-1)<<5, byte(p.Layers)}
	for _, n := range p.Nests {
		b = append(b, byte(n.Layer))
		for _, d := range []int{n.M, n.K, n.N, n.Mt, n.Kt, n.Nt} {
			b = le.AppendUint32(b, uint32(d))
		}
		b = le.AppendUint64(b, uint64(n.A))
		b = le.AppendUint64(b, uint64(n.B))
		b = le.AppendUint64(b, uint64(n.C))
		b = le.AppendUint16(b, uint16(n.Dim))
		b = le.AppendUint32(b, math.Float32bits(float32(n.Eff)))
		var flags byte
		if n.OnChipIn {
			flags |= 1
		}
		if n.OnChipOut {
			flags |= 2
		}
		b = append(b, flags)
	}
	return b
}

// FuzzProgramValidate feeds the code verifier's static check arbitrary
// programs, literal and nested. Whatever Validate accepts must expand
// to at most MaxProgramOps ops, none of whose loads or stores wraps the
// address space or leaves the span the monitor derives the task's
// window from, must count as many ops as Validate derives without
// expanding, and must measure the same on every call.
func FuzzProgramValidate(f *testing.F) {
	w := smallWorkload()
	p, _, err := Compile(w, DefaultConfig(), 0, DefaultLayout)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range []*Program{p, stripOnChipActivations(p)} {
		if err := decodeProgram(encodeNests(p)).Validate(); err != nil {
			f.Fatalf("seed does not round-trip to a valid program: %v", err)
		}
		f.Add(encodeNests(p))
	}
	// A literal load, compute and store.
	le := binary.LittleEndian
	lit := []byte{1 | 2<<2, 1}
	for _, op := range []Op{
		{Kind: OpLoad, VA: 0x10_0000, Bytes: 64},
		{Kind: OpCompute, Tile: true, Cycles: 10},
		{Kind: OpStore, VA: 0x10_1000, Bytes: 64},
	} {
		flags := byte(op.Kind)
		if op.Tile {
			flags |= 8
		}
		lit = append(lit, flags)
		lit = le.AppendUint64(lit, uint64(op.VA))
		lit = le.AppendUint64(lit, op.Bytes)
		lit = le.AppendUint32(lit, uint32(op.Cycles))
		lit = append(lit, 0)
		lit = le.AppendUint16(lit, 0)
	}
	f.Add(lit)

	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeProgram(data)
		want, err := p.check()
		if err != nil {
			return
		}
		lo, hi := p.VASpan()
		n := 0
		c := p.Cursor()
		for op, ok := c.Next(); ok; op, ok = c.Next() {
			if n++; n > MaxProgramOps {
				t.Fatalf("accepted program expands past %d ops", MaxProgramOps)
			}
			if op.Kind != OpLoad && op.Kind != OpStore {
				continue
			}
			end := uint64(op.VA) + op.Bytes
			if end < uint64(op.VA) {
				t.Fatalf("op %d: %s of %d bytes at %#x wraps the address space", n-1, op.Kind, op.Bytes, uint64(op.VA))
			}
			if op.VA < lo || mem.VirtAddr(end) > hi {
				t.Fatalf("op %d: [%#x,%#x) leaves the span [%#x,%#x)", n-1, uint64(op.VA), end, uint64(lo), uint64(hi))
			}
		}
		if n != want {
			t.Fatalf("expanded %d ops, Validate counts %d", n, want)
		}
		if p.Measurement() != p.Measurement() {
			t.Fatal("Measurement differs between two calls")
		}
	})
}
