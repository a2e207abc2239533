package npu

import (
	"fmt"

	"repro/internal/dma"
	"repro/internal/mem"
	"repro/internal/xlate"
)

// This file is the functional (data-carrying) execution path: real
// int8 x int8 -> int32 matrix multiplication through the core's
// scratchpad, with every byte moved by the DMA engine and every
// scratchpad access subject to the ID-state isolation rules. It exists
// for two reasons: end-to-end correctness tests (the simulator computes
// real answers, checked against a reference), and security tests with
// real data (an attacker reading a victim's scratchpad must fail while
// the victim's own compute succeeds).

// Matrix is a row-major int8 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []int8
}

// NewMatrix allocates a zeroed matrix.
func NewMatrix(rows, cols int) Matrix {
	return Matrix{Rows: rows, Cols: cols, Data: make([]int8, rows*cols)}
}

// At reads element (r, c).
func (m Matrix) At(r, c int) int8 { return m.Data[r*m.Cols+c] }

// Valid reports whether the backing slice matches the dimensions.
func (m Matrix) Valid() bool { return len(m.Data) == m.Rows*m.Cols }

// MatMulRef is the plain reference implementation the functional path
// is checked against in tests.
func MatMulRef(a, b Matrix) ([]int32, error) {
	if !a.Valid() || !b.Valid() || a.Cols != b.Rows {
		return nil, fmt.Errorf("npu: bad matmul dims %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := make([]int32, a.Rows*b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var acc int32
			for k := 0; k < a.Cols; k++ {
				acc += int32(a.At(i, k)) * int32(b.At(k, j))
			}
			out[i*b.Cols+j] = acc
		}
	}
	return out, nil
}

// FunctionalGEMM computes A (MxK) * B (KxN) on the core: the driver
// writes A and B into DRAM at the given virtual addresses, the DMA
// engine moves them into the scratchpad (through the core's
// access-control unit, functionally, line by line), the systolic model
// reads them back out of the scratchpad under the core's current
// domain, and the int32 result lands in the accumulator order
// (row-major). Matrices must fit the scratchpad.
func (c *Core) FunctionalGEMM(a, b Matrix, aVA, bVA mem.VirtAddr) ([]int32, error) {
	if !a.Valid() || !b.Valid() || a.Cols != b.Rows {
		return nil, fmt.Errorf("npu: bad matmul dims %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	lineBytes := c.sp.LineBytes()
	aLines := (len(a.Data) + lineBytes - 1) / lineBytes
	bLines := (len(b.Data) + lineBytes - 1) / lineBytes
	if aLines+bLines > c.sp.Lines() {
		return nil, fmt.Errorf("npu: matrices need %d scratchpad lines, have %d", aLines+bLines, c.sp.Lines())
	}

	// Stage operands in DRAM (what the driver's allocator would have
	// done) and mvin them functionally.
	c.stageBytes(aVA, int8ToBytes(a.Data))
	c.stageBytes(bVA, int8ToBytes(b.Data))
	if _, err := c.dmaEng.Do(dma.Request{
		VA: aVA, Bytes: uint64(len(a.Data)), Dir: dma.ToScratchpad,
		SpadLine: 0, World: c.World(), Functional: true,
	}, c.sp, c.domain, 0); err != nil {
		return nil, err
	}
	if _, err := c.dmaEng.Do(dma.Request{
		VA: bVA, Bytes: uint64(len(b.Data)), Dir: dma.ToScratchpad,
		SpadLine: aLines, World: c.World(), Functional: true,
	}, c.sp, c.domain, 0); err != nil {
		return nil, err
	}

	// Read the operands back out of the scratchpad under the core's
	// domain — this is where a mis-tagged line would fault — and run
	// the MAC array.
	aBytes, err := c.readSpad(0, len(a.Data))
	if err != nil {
		return nil, err
	}
	bBytes, err := c.readSpad(aLines, len(b.Data))
	if err != nil {
		return nil, err
	}
	av := Matrix{Rows: a.Rows, Cols: a.Cols, Data: bytesToInt8(aBytes)}
	bv := Matrix{Rows: b.Rows, Cols: b.Cols, Data: bytesToInt8(bBytes)}
	return MatMulRef(av, bv)
}

// stageBytes plants operand bytes in physical memory at the VA's
// translated location. The functional tests use identity or
// guarder-translated windows, so we translate through the core's own
// unit to find the backing PA.
func (c *Core) stageBytes(va mem.VirtAddr, data []byte) {
	res, err := c.dmaEng.Translator().Translate(translateProbe(va, uint64(len(data)), c), 0)
	if err != nil {
		// Leave memory unstaged; the subsequent DMA will surface the
		// denial to the caller.
		return
	}
	phys := c.dmaEng.Phys()
	if phys != nil {
		phys.Write(res.PA, data)
	}
}

// readSpad pulls n bytes starting at the given line, enforcing the ID
// rules for the core's domain.
func (c *Core) readSpad(fromLine, n int) ([]byte, error) {
	lineBytes := c.sp.LineBytes()
	out := make([]byte, 0, n)
	buf := make([]byte, lineBytes)
	for line := fromLine; len(out) < n; line++ {
		if err := c.sp.Read(c.domain, line, buf); err != nil {
			return nil, err
		}
		take := lineBytes
		if len(out)+take > n {
			take = n - len(out)
		}
		out = append(out, buf[:take]...)
	}
	return out, nil
}

// translateProbe builds the access-control request used to locate a
// VA's backing physical memory for operand staging.
func translateProbe(va mem.VirtAddr, bytes uint64, c *Core) xlate.Request {
	return xlate.Request{VA: va, Bytes: bytes, Need: mem.PermRead, World: c.World(), TaskID: 9000 + c.id}
}

func int8ToBytes(in []int8) []byte {
	out := make([]byte, len(in))
	for i, v := range in {
		out[i] = byte(v)
	}
	return out
}

func bytesToInt8(in []byte) []int8 {
	out := make([]int8, len(in))
	for i, v := range in {
		out[i] = int8(v)
	}
	return out
}
