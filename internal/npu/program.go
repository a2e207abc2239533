package npu

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
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

// Program is a compiled workload: a linear op stream for one core.
type Program struct {
	Name string
	Ops  []Op
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

	// derived holds the VA span Compile recorded and the owner's
	// measurement once someone asks for it. It belongs to the *Program
	// Compile built: a by-value copy, which may carry other Ops, sees
	// no recorded span and no memo. The monitor reads neither; it
	// derives the span from the ops it measures.
	derived *derived
}

// derived is what a compiled Program keeps about its own op stream.
type derived struct {
	prog   *Program
	lo, hi mem.VirtAddr
	once   sync.Once
	owner  [sha256.Size]byte
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
// op's record (appendOp), written in chunks of measureChunkOps ops.
func (p *Program) Measurement() [sha256.Size]byte {
	measureCalls.Add(1)
	h := sha256.New()
	h.Write([]byte(p.Name))
	h.Write(p.SourceDigest[:])
	buf := make([]byte, 0, measureChunkOps*OpRecordBytes)
	for _, op := range p.Ops {
		buf = appendOp(buf, op)
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
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

// Validate statically checks a program's structure: layer indices in
// range and non-decreasing (the flush/pipeline machinery depends on
// monotonic layers), op kinds known, loads/stores non-empty, and
// compute ops carrying positive occupancy. The NPU Monitor runs this
// on every submitted program before measuring it — a malformed stream
// is rejected rather than executed.
func (p *Program) Validate() error {
	if p.Layers <= 0 {
		return fmt.Errorf("npu: program %q has %d layers", p.Name, p.Layers)
	}
	if len(p.Ops) == 0 {
		return fmt.Errorf("npu: program %q has no ops", p.Name)
	}
	prevLayer := 0
	for i, op := range p.Ops {
		if op.Layer < 0 || op.Layer >= p.Layers {
			return fmt.Errorf("npu: op %d layer %d out of range [0,%d)", i, op.Layer, p.Layers)
		}
		if op.Layer < prevLayer {
			return fmt.Errorf("npu: op %d layer %d after layer %d (must be non-decreasing)", i, op.Layer, prevLayer)
		}
		prevLayer = op.Layer
		switch op.Kind {
		case OpLoad, OpStore:
			if op.Bytes == 0 {
				return fmt.Errorf("npu: op %d: empty %s", i, op.Kind)
			}
		case OpCompute:
			if op.Cycles <= 0 {
				return fmt.Errorf("npu: op %d: compute with %d cycles", i, op.Cycles)
			}
		default:
			return fmt.Errorf("npu: op %d: unknown kind %d", i, op.Kind)
		}
	}
	return nil
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
// tiled for the scratchpad budget, and each tile iteration becomes
// mvin/matmul/mvout ops. Matrices are assumed packed in tile order by
// the driver (the usual NPU weight layout), so each DMA descriptor
// covers SystolicDim rows of a tile contiguously.
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

	// Size the op stream exactly before emitting: append-growth on
	// multi-million-op streams dominated the whole suite's allocation
	// profile (~90% of fig1's bytes), and a right-sized slice is also a
	// precondition for sharing compiled programs via the compile cache.
	p.Ops = make([]Op, 0, countOps(w, tilings, dim))

	gemmIdx := 0
	for li, layer := range w.Layers {
		for _, g := range layer.GEMMs {
			tl := tilings[gemmIdx]
			gemmIdx++
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
			bBase := layout.WeightBase + mem.VirtAddr(weightOff)
			cBase := aBase + mem.VirtAddr(aPacked)

			for mi := 0; mi < mc; mi++ {
				mt := tileSize(g.M, tl.Mt, mi, mc)
				for ni := 0; ni < nc; ni++ {
					nt := tileSize(g.N, tl.Nt, ni, nc)
					for ki := 0; ki < kc; ki++ {
						kt := tileSize(g.K, tl.Kt, ki, kc)
						// mvin A tile (mi,ki): descriptors of dim rows.
						aTileVA := aBase + mem.VirtAddr((mi*kc+ki)*(tl.Mt*tl.Kt))
						emitDescriptors(p, OpLoad, aTileVA, mt, kt, dim, tl.Kt, li, false)
						// mvin B tile (ki,ni).
						bTileVA := bBase + mem.VirtAddr((ki*nc+ni)*(tl.Kt*tl.Nt))
						emitDescriptors(p, OpLoad, bTileVA, kt, nt, dim, tl.Nt, li, true)
						// matmul.
						passes := int64(ceilDiv(mt, dim)) * int64(ceilDiv(nt, dim))
						cycles := float64(passes*int64(kt+2*dim)) / g.Eff()
						p.Ops = append(p.Ops, Op{
							Kind: OpCompute, Cycles: sim.Cycle(cycles), Layer: li, Tile: true,
							MACs: int64(mt) * int64(kt) * int64(nt),
						})
					}
					// mvout C tile (mi,ni).
					cTileVA := cBase + mem.VirtAddr((mi*nc+ni)*(tl.Mt*tl.Nt))
					emitDescriptors(p, OpStore, cTileVA, mt, nt, dim, tl.Nt, li, false)
				}
			}
			weightOff += bPacked
			actOff += aPacked + cPacked
		}
	}
	p.LiveSpadBytes = maxLive
	lo, hi := SpanOf(p.Ops)
	p.derived = &derived{prog: p, lo: lo, hi: hi}
	st.Ops = len(p.Ops)
	st.WeightBytes = int64(weightOff)
	return p, st, nil
}

// tileSize is the edge-aware extent of tile idx out of count covering
// total elements with full tiles of size tile.
func tileSize(total, tile, idx, count int) int {
	if idx == count-1 {
		return total - tile*(count-1)
	}
	return tile
}

// countOps walks the same tile loops as the emit pass and returns the
// exact number of ops Compile will produce, so p.Ops can be allocated
// once at final size (no append doubling, no slack).
func countOps(w workload.Workload, tilings []workload.Tiling, dim int) int {
	total := 0
	gi := 0
	for _, layer := range w.Layers {
		for _, g := range layer.GEMMs {
			tl := tilings[gi]
			gi++
			mc, kc, nc := tl.Counts()
			for mi := 0; mi < mc; mi++ {
				mt := tileSize(g.M, tl.Mt, mi, mc)
				aDesc := ceilDiv(mt, dim)
				// Per (mi,ni): kc iterations of (A descriptors + B
				// descriptors + 1 matmul), then the C mvout descriptors.
				inner := 0
				for ki := 0; ki < kc; ki++ {
					kt := tileSize(g.K, tl.Kt, ki, kc)
					inner += aDesc + ceilDiv(kt, dim) + 1
				}
				total += nc * (inner + aDesc)
			}
		}
	}
	return total
}

// emitDescriptors appends the mvin/mvout descriptors for a rows x cols
// tile stored packed with row stride strideCols: one descriptor per
// dim-row block, each contiguous in the packed layout.
func emitDescriptors(p *Program, kind OpKind, base mem.VirtAddr, rows, cols, dim, strideCols, layer int, weight bool) {
	for r := 0; r < rows; r += dim {
		blockRows := dim
		if r+blockRows > rows {
			blockRows = rows - r
		}
		va := base + mem.VirtAddr(r*strideCols)
		p.Ops = append(p.Ops, Op{
			Kind:   kind,
			VA:     va,
			Bytes:  uint64(blockRows * cols * workload.ElemBytes),
			Layer:  layer,
			Weight: weight,
		})
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// VASpan reports the lowest VA and one past the highest VA the
// program's loads/stores touch — the window the driver must map (and
// the monitor must cover with translation registers). A program
// Compile built returns the span it recorded; any other scans its ops.
func (p *Program) VASpan() (lo, hi mem.VirtAddr) {
	if d := p.own(); d != nil {
		return d.lo, d.hi
	}
	return SpanOf(p.Ops)
}

// SpanOf scans ops for the lowest VA and one past the highest VA their
// loads and stores touch (zero, zero when there are none).
func SpanOf(ops []Op) (lo, hi mem.VirtAddr) {
	first := true
	for _, op := range ops {
		if op.Kind != OpLoad && op.Kind != OpStore {
			continue
		}
		if first || op.VA < lo {
			lo = op.VA
		}
		if end := op.VA + mem.VirtAddr(op.Bytes); first || end > hi {
			hi = end
		}
		first = false
	}
	return lo, hi
}
