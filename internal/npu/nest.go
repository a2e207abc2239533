package npu

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Nest is one GEMM's tile loop, the compiled form of its ops (Gemmini's
// loop instructions issue a whole tiled matmul from a few registers the
// same way). For each output tile (mi, ni) in row-major order and each
// k step ki, the loop loads the A tile (mi, ki) and the B tile (ki, ni)
// and runs one compute op; after the last k step it stores the C tile
// (mi, ni). Edge tiles hold the remainder of a dimension. Matrices are
// packed in tile order with every slot full-size, so tile (i, j) of a
// matrix whose tiles are R x C and whose tile rows hold n tiles starts
// at base + (i*n + j)*R*C, and each load or store descriptor covers Dim
// rows of a tile contiguously.
type Nest struct {
	Layer int
	// M, K and N are the GEMM's dimensions, Mt, Kt and Nt its tile
	// sizes.
	M, K, N    int
	Mt, Kt, Nt int
	// A, B and C are the base VAs of the packed input, weight and
	// output matrices.
	A, B, C mem.VirtAddr
	// Dim is the systolic array's dimension and Eff the GEMM's
	// efficiency: a compute op of an mt x kt x nt tile occupies the
	// array for ceil(mt/Dim)*ceil(nt/Dim)*(kt+2*Dim)/Eff cycles.
	Dim int
	Eff float64
	// OnChipIn and OnChipOut drop the A loads and the C stores: in a
	// model-parallel slice the activations arrive and leave over the
	// NoC instead of DRAM.
	OnChipIn, OnChipOut bool
}

// MaxProgramOps bounds the op count of a program: a nest is a few
// words but can stand for any number of ops, and the code verifier
// hashes every one. The largest program a built-in model compiles to
// (vgg16 at a 10% scratchpad budget) has 3,138,775 ops.
const MaxProgramOps = 1 << 22

// maxNestDim bounds a nest's dimensions, tile sizes and array
// dimension, so the cursor's index and size arithmetic cannot
// overflow.
const maxNestDim = math.MaxInt32

// counts returns n's tile counts along M, K and N.
func (n *Nest) counts() (mc, kc, nc int) {
	return ceilDiv(n.M, n.Mt), ceilDiv(n.K, n.Kt), ceilDiv(n.N, n.Nt)
}

// compute is the compute op of an mt x kt x nt tile of n.
func (n *Nest) compute(mt, kt, nt int) Op {
	passes := int64(ceilDiv(mt, n.Dim)) * int64(ceilDiv(nt, n.Dim))
	cycles := float64(passes*int64(kt+2*n.Dim)) / n.Eff
	return Op{Kind: OpCompute, Cycles: sim.Cycle(cycles), Layer: n.Layer, Tile: true,
		MACs: int64(mt) * int64(kt) * int64(nt)}
}

// tileSize is the edge-aware extent of tile idx out of count covering
// total elements with full tiles of size tile.
func tileSize(total, tile, idx, count int) int {
	if idx == count-1 {
		return total - tile*(count-1)
	}
	return tile
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Phases of a cursor's tile step.
const (
	phaseA = iota
	phaseB
	phaseCompute
	phaseC
)

// cursorChunk is how many ops a Cursor expands at a time.
const cursorChunk = 64

// Cursor walks a program's op stream in execution order; every reader
// of a program (the executor, the measurement, the tests) walks it
// this way. A literal program's ops are read in place. A compiled
// program's nests are expanded cursorChunk ops at a time, so a walk
// holds a few KB however long the stream is. A program holding both
// forms walks its literal ops first, and nests that are not expandable
// yield no ops (Validate refuses both).
type Cursor struct {
	p   *Program
	buf []Op // ops read in place or expanded, not all consumed yet
	i   int  // next op in buf
	own []Op // expansion buffer, cursorChunk ops

	// Position in p.Nests: nest g, output tile (mi, ni), k step ki, the
	// phase of the tile step and the next descriptor row r of the
	// phase.
	g, mi, ni, ki, phase, r int
	// Nest g's tile counts and the current tiles' sizes.
	mc, kc, nc, mt, kt, nt int
	// The last compute op expanded and its tile shape: consecutive
	// tiles usually share a shape, and then the op is reused.
	last          Op
	lmt, lkt, lnt int
}

// Cursor returns a cursor at the start of p's op stream.
func (p *Program) Cursor() *Cursor {
	c := &Cursor{p: p, buf: p.Ops}
	c.enter(0)
	return c
}

// Next returns the next op, or false when the stream is done.
func (c *Cursor) Next() (Op, bool) {
	if c.Done() {
		return Op{}, false
	}
	c.i++
	return c.buf[c.i-1], true
}

// Done reports whether the stream has no ops left.
func (c *Cursor) Done() bool { return c.i == len(c.buf) && !c.refill() }

// chunk returns the ops up to the next expansion and consumes them (a
// literal program's whole stream at once); it is empty when the
// stream is done.
func (c *Cursor) chunk() []Op {
	if c.Done() {
		return nil
	}
	ops := c.buf[c.i:]
	c.i = len(c.buf)
	return ops
}

// peek returns the next op without consuming it; call it only when
// Done is false.
func (c *Cursor) peek() *Op { return &c.buf[c.i] }

// skipTo consumes every op of the layers below layer, skipping whole
// nests without expanding them.
func (c *Cursor) skipTo(layer int) {
	for {
		for c.i < len(c.buf) && c.buf[c.i].Layer < layer {
			c.i++
		}
		if c.i < len(c.buf) {
			return
		}
		for c.g < len(c.p.Nests) && c.p.Nests[c.g].Layer < layer {
			c.enter(c.g + 1)
		}
		if !c.refill() {
			return
		}
	}
}

// enter positions c at the first tile step of nest g, or of the first
// expandable nest after it.
func (c *Cursor) enter(g int) {
	for g < len(c.p.Nests) && !c.p.Nests[g].expandable() {
		g++
	}
	c.g, c.mi, c.ni, c.ki, c.phase, c.r = g, 0, 0, 0, phaseA, 0
	c.lmt = 0
	if g < len(c.p.Nests) {
		n := &c.p.Nests[g]
		c.mc, c.kc, c.nc = n.counts()
		c.mt = tileSize(n.M, n.Mt, 0, c.mc)
		c.kt = tileSize(n.K, n.Kt, 0, c.kc)
		c.nt = tileSize(n.N, n.Nt, 0, c.nc)
	}
}

// refill expands the next chunk of nest ops into buf and reports
// whether there were any.
func (c *Cursor) refill() bool {
	if c.own == nil {
		if len(c.p.Nests) == 0 {
			return false
		}
		c.own = make([]Op, 0, cursorChunk)
	}
	buf := c.own[:0]
	for len(buf) < cursorChunk && c.g < len(c.p.Nests) {
		buf = c.step(&c.p.Nests[c.g], buf)
	}
	c.buf, c.i = buf, 0
	return len(buf) > 0
}

// step appends the current phase of n's current tile step to buf, as
// far as buf has room, and advances the position past what it
// appended.
func (c *Cursor) step(n *Nest, buf []Op) []Op {
	var done bool
	switch c.phase {
	case phaseA:
		slot := uint64(c.mi*c.kc + c.ki)
		if buf, done = c.descriptors(buf, n, OpLoad, n.A+mem.VirtAddr(slot*uint64(n.Mt)*uint64(n.Kt)), c.mt, c.kt, n.Kt, false); done {
			c.phase = phaseB
		}
	case phaseB:
		slot := uint64(c.ki*c.nc + c.ni)
		if buf, done = c.descriptors(buf, n, OpLoad, n.B+mem.VirtAddr(slot*uint64(n.Kt)*uint64(n.Nt)), c.kt, c.nt, n.Nt, true); done {
			c.phase = phaseCompute
		}
	case phaseCompute:
		if c.mt != c.lmt || c.kt != c.lkt || c.nt != c.lnt {
			c.last, c.lmt, c.lkt, c.lnt = n.compute(c.mt, c.kt, c.nt), c.mt, c.kt, c.nt
		}
		buf = append(buf, c.last)
		if c.ki < c.kc-1 {
			c.ki++
			c.kt = tileSize(n.K, n.Kt, c.ki, c.kc)
			c.phase = phaseA
		} else {
			c.phase = phaseC
		}
	case phaseC:
		slot := uint64(c.mi*c.nc + c.ni)
		if buf, done = c.descriptors(buf, n, OpStore, n.C+mem.VirtAddr(slot*uint64(n.Mt)*uint64(n.Nt)), c.mt, c.nt, n.Nt, false); !done {
			return buf
		}
		c.ki, c.phase = 0, phaseA
		c.kt = tileSize(n.K, n.Kt, 0, c.kc)
		if c.ni++; c.ni == c.nc {
			if c.mi++; c.mi == c.mc {
				c.enter(c.g + 1)
				return buf
			}
			c.ni = 0
			c.mt = tileSize(n.M, n.Mt, c.mi, c.mc)
		}
		c.nt = tileSize(n.N, n.Nt, c.ni, c.nc)
	}
	return buf
}

// descriptors appends the load or store descriptors of a rows x cols
// tile stored packed at base with row stride stride to buf, from row
// c.r on and as many as buf has room for: one per Dim-row block, each
// contiguous. It reports whether the tile's last descriptor is out.
// A dropped phase (OnChipIn, OnChipOut) appends nothing.
func (c *Cursor) descriptors(buf []Op, n *Nest, kind OpKind, base mem.VirtAddr, rows, cols, stride int, weight bool) ([]Op, bool) {
	if (kind == OpStore && n.OnChipOut) || (kind == OpLoad && !weight && n.OnChipIn) {
		return buf, true
	}
	r, dim := c.r, n.Dim
	for ; r < rows; r += dim {
		if len(buf) == cap(buf) {
			c.r = r
			return buf, false
		}
		// Set the fields in place: building the Op on the stack and
		// copying it in stalls on store forwarding.
		buf = buf[:len(buf)+1]
		op := &buf[len(buf)-1]
		op.Kind, op.Tile, op.Weight = kind, false, weight
		op.VA = base + mem.VirtAddr(uint64(r)*uint64(stride))
		op.Bytes = uint64(min(dim, rows-r) * cols * workload.ElemBytes)
		op.Cycles, op.Layer, op.MACs = 0, n.Layer, 0
	}
	c.r = 0
	return buf, true
}

// opCount returns the number of ops n expands to, saturating at
// MaxProgramOps+1.
func (n *Nest) opCount() uint64 {
	mc, kc, nc := n.counts()
	// Descriptors of one sweep of the A (or C) tile rows and of the B
	// tile rows.
	rowsM := capAdd(capMul(uint64(mc-1), uint64(ceilDiv(n.Mt, n.Dim))), uint64(ceilDiv(tileSize(n.M, n.Mt, mc-1, mc), n.Dim)))
	rowsK := capAdd(capMul(uint64(kc-1), uint64(ceilDiv(n.Kt, n.Dim))), uint64(ceilDiv(tileSize(n.K, n.Kt, kc-1, kc), n.Dim)))
	total := capMul(capMul(uint64(mc), uint64(kc)), uint64(nc)) // compute ops
	total = capAdd(total, capMul(capMul(uint64(mc), uint64(nc)), rowsK))
	if !n.OnChipIn {
		total = capAdd(total, capMul(capMul(uint64(nc), uint64(kc)), rowsM))
	}
	if !n.OnChipOut {
		total = capAdd(total, capMul(uint64(nc), rowsM))
	}
	return total
}

// capMul and capAdd saturate at MaxProgramOps+1, which is all a bound
// check needs to know of a larger count.
func capMul(a, b uint64) uint64 {
	const limit = MaxProgramOps + 1
	if a > limit || b > limit || a*b > limit {
		return limit
	}
	return a * b
}

func capAdd(a, b uint64) uint64 { return min(a+b, MaxProgramOps+1) }

// span reports the lowest VA and one past the highest VA n's loads and
// stores touch. Each stream's last tile slot holds its highest
// descriptor end, because every tile fits in its slot.
func (n *Nest) span() (lo, hi mem.VirtAddr) {
	mc, kc, nc := n.counts()
	mtl, ktl, ntl := tileSize(n.M, n.Mt, mc-1, mc), tileSize(n.K, n.Kt, kc-1, kc), tileSize(n.N, n.Nt, nc-1, nc)
	// end is the end of the last descriptor of a rows x cols tile in the
	// last of slots slots of slotBytes each.
	end := func(base mem.VirtAddr, slots, slotBytes, rows, cols, stride int) mem.VirtAddr {
		r := (rows - 1) / n.Dim * n.Dim
		return base + mem.VirtAddr(uint64(slots-1)*uint64(slotBytes)+uint64(r)*uint64(stride)+uint64((rows-r)*cols))
	}
	lo, hi = n.B, end(n.B, kc*nc, n.Kt*n.Nt, ktl, ntl, n.Nt)
	if !n.OnChipIn {
		lo, hi = min(lo, n.A), max(hi, end(n.A, mc*kc, n.Mt*n.Kt, mtl, ktl, n.Kt))
	}
	if !n.OnChipOut {
		lo, hi = min(lo, n.C), max(hi, end(n.C, mc*nc, n.Mt*n.Nt, mtl, ntl, n.Nt))
	}
	return lo, hi
}

// check refuses a nest whose expansion holds an op Validate would
// refuse in a literal program, or whose arithmetic overflows.
func (n *Nest) check() error {
	for _, d := range [...]int{n.M, n.K, n.N, n.Mt, n.Kt, n.Nt, n.Dim} {
		if d <= 0 || d > maxNestDim {
			return fmt.Errorf("dimension %d out of range [1,%d]", d, maxNestDim)
		}
	}
	if math.IsNaN(n.Eff) || math.IsInf(n.Eff, 0) || n.Eff <= 0 {
		return fmt.Errorf("efficiency %v is not finite and positive", n.Eff)
	}
	mc, kc, nc := n.counts()
	for _, m := range [...]struct {
		name        string
		base        mem.VirtAddr
		slots, tile [2]int
	}{
		{"A", n.A, [2]int{mc, kc}, [2]int{n.Mt, n.Kt}},
		{"B", n.B, [2]int{kc, nc}, [2]int{n.Kt, n.Nt}},
		{"C", n.C, [2]int{mc, nc}, [2]int{n.Mt, n.Nt}},
	} {
		extent, ok := mulChecked(m.slots[0], m.slots[1], m.tile[0], m.tile[1])
		if !ok || extent > math.MaxUint64-uint64(m.base) {
			return fmt.Errorf("packed %s at %#x overflows the address space", m.name, uint64(m.base))
		}
	}
	// Cycles and MACs grow with the tile shape, so the full tiles bound
	// the largest compute op and the edge tiles the smallest.
	mt, kt, nt := min(n.M, n.Mt), min(n.K, n.Kt), min(n.N, n.Nt)
	work, ok := mulChecked(ceilDiv(mt, n.Dim), ceilDiv(nt, n.Dim), kt+2*n.Dim)
	if !ok || work > math.MaxInt64 || float64(work)/n.Eff >= math.MaxInt64 {
		return fmt.Errorf("compute cycles of a %dx%dx%d tile overflow", mt, kt, nt)
	}
	if macs, ok := mulChecked(mt, kt, nt); !ok || macs > math.MaxInt64 {
		return fmt.Errorf("MACs of a %dx%dx%d tile overflow", mt, kt, nt)
	}
	edge := n.compute(tileSize(n.M, n.Mt, mc-1, mc), tileSize(n.K, n.Kt, kc-1, kc), tileSize(n.N, n.Nt, nc-1, nc))
	if edge.Cycles < 1 {
		return fmt.Errorf("compute with %d cycles", edge.Cycles)
	}
	return nil
}

// expandable reports whether the cursor expands n: it passes check
// and stays within the op bound. The cursor and VASpan skip any other
// nest, so they terminate on any program; Validate refuses a program
// holding one.
func (n *Nest) expandable() bool {
	return n.check() == nil && n.opCount() <= MaxProgramOps
}

// mulChecked multiplies positive factors and reports false if the
// product overflows 64 bits.
func mulChecked(factors ...int) (uint64, bool) {
	p := uint64(1)
	for _, f := range factors {
		hi, lo := bits.Mul64(p, uint64(f))
		if hi != 0 {
			return 0, false
		}
		p = lo
	}
	return p, true
}
