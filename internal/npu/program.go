package npu

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// OpKind enumerates the NPU's op-level ISA. The compiler lowers each
// GEMM tile iteration into mvin (load), matmul (compute), and mvout
// (store) ops. Multi-core runs move activations between cores outside
// the op stream (parallel.go), so the stream has no NoC ops.
type OpKind uint8

const (
	// OpLoad moves data DRAM -> scratchpad (mvin).
	OpLoad OpKind = iota
	// OpStore moves data scratchpad -> DRAM (mvout).
	OpStore
	// OpCompute runs the systolic array for Cycles.
	OpCompute
)

func (k OpKind) String() string {
	switch k {
	case OpLoad:
		return "mvin"
	case OpStore:
		return "mvout"
	case OpCompute:
		return "matmul"
	default:
		return "unknown"
	}
}

// Op is one NPU instruction. The one-byte fields sit together ahead of
// the words, so an Op is six words (48 bytes).
type Op struct {
	Kind OpKind
	// Tile marks compute ops as op-kernel boundaries for scheduling.
	Tile bool
	// Weight marks loads of the weight (B) matrix; false on loads and
	// stores of activations. Multi-core mappings strip activation
	// traffic that arrives over the NoC instead of DRAM.
	Weight bool
	// VA and Bytes describe the DRAM side of a load/store.
	VA    mem.VirtAddr
	Bytes uint64
	// Cycles is the array occupancy of a compute op.
	Cycles sim.Cycle
	// Layer is the index of the layer this op belongs to (drives
	// flush-granularity and pipeline-mapping decisions).
	Layer int
	// MACs is the multiply-accumulate count of a compute op (energy
	// accounting).
	MACs int64
}

// Program is a workload lowered for one core. Its op stream takes one
// of two forms: Nests, one tile loop per GEMM, which is what Compile
// builds, or Ops, a literal stream for hand-built programs. Every
// reader walks the stream with a Cursor, whichever form is set.
type Program struct {
	Name string
	// Ops is the literal form. Compile leaves it nil.
	Ops []Op
	// Nests is the compiled form, in execution order.
	Nests []Nest
	// Layers is the layer count (boundaries usable for flushing).
	Layers int
	// TotalMACs is the arithmetic work, for utilization reporting.
	TotalMACs int64
	// IdealComputeCycles is the peak-rate lower bound on one core.
	IdealComputeCycles int64
	// SpadBytes is the scratchpad budget the program was tiled for.
	SpadBytes int
	// LiveSpadBytes approximates the occupied footprint while running
	// (the double-buffered peak working set).
	LiveSpadBytes uint64
	// AccTileBytes is the largest accumulator (output) tile — the
	// dirty state a context-switch flush must save and restore.
	AccTileBytes uint64
	// SourceDigest is the SHA-256 of the canonical serialization of
	// the lowered workload this program was compiled from
	// (workload.Digest). Folding it into Measurement binds the
	// attestation quote to the exact compiled graph — layer names,
	// GEMM shapes, efficiencies — not just the op stream and model
	// name, so two graphs that happen to tile to the same ops still
	// attest distinctly.
	SourceDigest [sha256.Size]byte

	// derived holds the owner's measurement once someone asks for it.
	// It belongs to the *Program Compile built: a by-value copy, which
	// may carry other nests, sees no memo.
	derived *derived
}

// derived is what a compiled Program keeps about its own op stream.
type derived struct {
	prog  *Program
	once  sync.Once
	owner [sha256.Size]byte
}

// own returns p's derived values, or nil when p was not built by
// Compile (a literal) or is a copy of a program that was.
func (p *Program) own() *derived {
	if d := p.derived; d != nil && d.prog == p {
		return d
	}
	return nil
}

// measureCalls counts Measurement calls, so tests can pin how many
// hashes an admission costs.
var measureCalls atomic.Int64

// measureChunkOps is how many ops Measurement encodes per hash write.
const measureChunkOps = 64

// OpRecordBytes is the size of an op's one encoding: seven
// little-endian 64-bit words (kind, VA, bytes, cycles, layer, flags,
// MACs). Measurement hashes these records, so the code verifier
// measures every field the executor reads.
const OpRecordBytes = 7 * 8

// Bits of an op record's flags word; every other bit is zero.
const (
	opFlagTile   = 1 << 0
	opFlagWeight = 1 << 1
)

// appendOp appends op's record to b.
func appendOp(b []byte, op Op) []byte {
	var flags uint64
	if op.Tile {
		flags |= opFlagTile
	}
	if op.Weight {
		flags |= opFlagWeight
	}
	le := binary.LittleEndian
	b = le.AppendUint64(b, uint64(op.Kind))
	b = le.AppendUint64(b, uint64(op.VA))
	b = le.AppendUint64(b, op.Bytes)
	b = le.AppendUint64(b, uint64(op.Cycles))
	b = le.AppendUint64(b, uint64(op.Layer))
	b = le.AppendUint64(b, flags)
	return le.AppendUint64(b, uint64(op.MACs))
}

// Measurement hashes the source digest and the op stream — the
// code-integrity measurement the NPU Monitor's code verifier checks
// before loading a secure task, and the value an attestation quote
// binds. The hashed bytes are the name, the source digest, then each
// op's record (appendOp) in stream order, written in chunks of
// measureChunkOps ops.
func (p *Program) Measurement() [sha256.Size]byte {
	measureCalls.Add(1)
	h := sha256.New()
	h.Write([]byte(p.Name))
	h.Write(p.SourceDigest[:])
	buf := make([]byte, 0, measureChunkOps*OpRecordBytes)
	c := p.Cursor()
	for ops := c.chunk(); len(ops) > 0; ops = c.chunk() {
		for _, op := range ops {
			buf = appendOp(buf, op)
			if len(buf) == cap(buf) {
				h.Write(buf)
				buf = buf[:0]
			}
		}
	}
	h.Write(buf)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// OwnerMeasurement is the measurement a model owner puts in a
// submission's expected value. A program Compile built hashes once, on
// the first call, and returns that value afterwards; concurrent callers
// of a shared compile-cache program are safe. Any other program hashes
// on every call. The monitor's code verifier never reads this memo: it
// hashes the ops it is handed (Measurement).
func (p *Program) OwnerMeasurement() [sha256.Size]byte {
	d := p.own()
	if d == nil {
		return p.Measurement()
	}
	d.once.Do(func() { d.owner = p.Measurement() })
	return d.owner
}

// Validate statically checks a program's structure: exactly one form
// set, layer indices in range and non-decreasing (the flush/pipeline
// machinery depends on monotonic layers), op kinds known, loads and
// stores non-empty and inside the address space, compute ops carrying
// positive occupancy, and at most MaxProgramOps ops. A nest must
// expand to ops that pass these checks and its arithmetic must not
// overflow; Validate checks it without expanding it. The NPU Monitor
// runs this on every submitted program before measuring it — a
// malformed stream is rejected rather than executed.
func (p *Program) Validate() error {
	_, err := p.check()
	return err
}

// check is Validate, returning the program's op count.
func (p *Program) check() (int, error) {
	if p.Layers <= 0 {
		return 0, fmt.Errorf("npu: program %q has %d layers", p.Name, p.Layers)
	}
	if (len(p.Ops) > 0) == (len(p.Nests) > 0) {
		return 0, fmt.Errorf("npu: program %q must hold either literal ops or nests", p.Name)
	}
	layer := func(l, prev int) error {
		if l < 0 || l >= p.Layers {
			return fmt.Errorf("layer %d out of range [0,%d)", l, p.Layers)
		}
		if l < prev {
			return fmt.Errorf("layer %d after layer %d (must be non-decreasing)", l, prev)
		}
		return nil
	}
	prev := 0
	for i, op := range p.Ops {
		if err := layer(op.Layer, prev); err != nil {
			return 0, fmt.Errorf("npu: op %d: %w", i, err)
		}
		prev = op.Layer
		switch op.Kind {
		case OpLoad, OpStore:
			if op.Bytes == 0 {
				return 0, fmt.Errorf("npu: op %d: empty %s", i, op.Kind)
			}
			if op.Bytes > math.MaxUint64-uint64(op.VA) {
				return 0, fmt.Errorf("npu: op %d: %s of %d bytes at %#x wraps the address space", i, op.Kind, op.Bytes, uint64(op.VA))
			}
		case OpCompute:
			if op.Cycles <= 0 {
				return 0, fmt.Errorf("npu: op %d: compute with %d cycles", i, op.Cycles)
			}
		default:
			return 0, fmt.Errorf("npu: op %d: unknown kind %d", i, op.Kind)
		}
	}
	total := uint64(len(p.Ops))
	for i := range p.Nests {
		n := &p.Nests[i]
		if err := layer(n.Layer, prev); err != nil {
			return 0, fmt.Errorf("npu: nest %d: %w", i, err)
		}
		prev = n.Layer
		if err := n.check(); err != nil {
			return 0, fmt.Errorf("npu: nest %d: %w", i, err)
		}
		total = capAdd(total, n.opCount())
	}
	if total > MaxProgramOps {
		return 0, fmt.Errorf("npu: program %q has more than %d ops", p.Name, MaxProgramOps)
	}
	return int(total), nil
}

// Layout fixes the virtual-address plan of a compiled task: the
// driver allocates chunks (weights, activations) in NPU-reserved
// memory and the compiler places tiles inside them.
type Layout struct {
	// WeightBase is the VA of the packed weight chunk. The activation
	// (input/output) chunk follows it page-aligned, keeping the task's
	// VA window compact.
	WeightBase mem.VirtAddr
}

// DefaultLayout is the conventional task address plan: a compact
// window starting at 1 MiB with activations following the weights.
var DefaultLayout = Layout{WeightBase: 0x10_0000}

// CompanionLayout is the second task's plan when two windows are mapped
// at once (a time-shared pair on one core, Fig. 13's pair behind one
// shared IOMMU). Every built-in model's DefaultLayout window ends below
// it (vgg16, the largest, at 0x0E36_23E8), so the two never overlap.
var CompanionLayout = Layout{WeightBase: 0x4000_0000}

// CompileStats summarizes what the compiler produced.
type CompileStats struct {
	Ops          int
	TileIters    int
	WeightBytes  int64
	TrafficBytes int64
}

// Compile lowers a workload into a Program for one core: every GEMM is
// tiled for the scratchpad budget and becomes one nest, whose tile
// iterations stand for mvin/matmul/mvout ops. Matrices are assumed
// packed in tile order by the driver (the usual NPU weight layout), so
// each DMA descriptor covers SystolicDim rows of a tile contiguously.
// A program Validate would refuse (more than MaxProgramOps ops, say)
// is an error.
func Compile(w workload.Workload, cfg Config, spadBudget int, layout Layout) (*Program, CompileStats, error) {
	return compile(w, cfg, spadBudget, layout, workload.Digest(w))
}

// compile is Compile with w's digest already taken.
func compile(w workload.Workload, cfg Config, spadBudget int, layout Layout, digest [sha256.Size]byte) (*Program, CompileStats, error) {
	if err := w.Validate(); err != nil {
		return nil, CompileStats{}, err
	}
	if spadBudget <= 0 {
		spadBudget = cfg.SpadBytes
	}
	dim := cfg.SystolicDim
	p := &Program{Name: w.Name, Layers: len(w.Layers), SpadBytes: spadBudget,
		SourceDigest: digest}
	var st CompileStats
	weightOff := uint64(0)
	actOff := uint64(0)
	var maxLive uint64

	// First pass: tile every GEMM and total the packed weight bytes so
	// the activation region can sit compactly after the weights.
	var tilings []workload.Tiling
	var weightTotal uint64
	for _, layer := range w.Layers {
		for _, g := range layer.GEMMs {
			tl, err := workload.ChooseTiling(g, spadBudget, dim)
			if err != nil {
				return nil, CompileStats{}, fmt.Errorf("npu: tiling %s/%s: %w", w.Name, g.Name, err)
			}
			tilings = append(tilings, tl)
			_, kc, nc := tl.Counts()
			weightTotal += uint64(kc * nc * tl.Kt * tl.Nt)
		}
	}
	actBase := layout.WeightBase + mem.VirtAddr(mem.PageAlignUp(mem.PhysAddr(weightTotal)))

	p.Nests = make([]Nest, 0, len(tilings))
	for li, layer := range w.Layers {
		for _, g := range layer.GEMMs {
			tl := tilings[len(p.Nests)]
			mc, kc, nc := tl.Counts()
			st.TileIters += mc * kc * nc
			st.TrafficBytes += tl.DRAMTrafficBytes()
			p.TotalMACs += g.MACs()
			p.IdealComputeCycles += workload.IdealComputeCycles(g, dim)
			if live := uint64(2*(tl.Mt*tl.Kt+tl.Kt*tl.Nt) + tl.Mt*tl.Nt); live > maxLive {
				maxLive = live
			}
			if acc := uint64(tl.Mt * tl.Nt); acc > p.AccTileBytes {
				p.AccTileBytes = acc
			}

			// Packed-tile chunk sizes (full tile slots, edges padded).
			aPacked := uint64(mc * kc * tl.Mt * tl.Kt)
			bPacked := uint64(kc * nc * tl.Kt * tl.Nt)
			cPacked := uint64(mc * nc * tl.Mt * tl.Nt)
			aBase := actBase + mem.VirtAddr(actOff)
			p.Nests = append(p.Nests, Nest{
				Layer: li, M: g.M, K: g.K, N: g.N, Mt: tl.Mt, Kt: tl.Kt, Nt: tl.Nt,
				A: aBase, B: layout.WeightBase + mem.VirtAddr(weightOff), C: aBase + mem.VirtAddr(aPacked),
				Dim: dim, Eff: g.Eff(),
			})
			weightOff += bPacked
			actOff += aPacked + cPacked
		}
	}
	p.LiveSpadBytes = maxLive
	ops, err := p.check()
	if err != nil {
		return nil, CompileStats{}, fmt.Errorf("npu: compiling %s: %w", w.Name, err)
	}
	p.derived = &derived{prog: p}
	st.Ops = ops
	st.WeightBytes = int64(weightOff)
	return p, st, nil
}

// VASpan reports the lowest VA and one past the highest VA the
// program's loads/stores touch (zero, zero when there are none) — the
// window the driver must map and the monitor covers with a translation
// register. It derives the window from whichever form the program
// holds: a literal program's ops one by one, a compiled program's
// nests in O(nests).
func (p *Program) VASpan() (lo, hi mem.VirtAddr) {
	first := true
	add := func(l, h mem.VirtAddr) {
		if first || l < lo {
			lo = l
		}
		if first || h > hi {
			hi = h
		}
		first = false
	}
	for _, op := range p.Ops {
		if op.Kind == OpLoad || op.Kind == OpStore {
			add(op.VA, op.VA+mem.VirtAddr(op.Bytes))
		}
	}
	for i := range p.Nests {
		if n := &p.Nests[i]; n.expandable() {
			add(n.span())
		}
	}
	return lo, hi
}
