// Package workload describes the six DNN inference workloads the paper
// evaluates (§VI: GoogleNet, AlexNet, YOLO-lite, MobileNet, ResNet, BERT) as
// layer-accurate GEMM sequences, and provides the tiling machinery that
// maps each GEMM onto a systolic-array NPU under a scratchpad budget.
//
// Every convolution is lowered to its im2col GEMM (M = OH*OW,
// K = C*R*S, N = filters); fully-connected and attention layers are
// GEMMs natively; depthwise convolutions carry an efficiency penalty
// because a systolic array cannot fill its columns from a single input
// channel. Element size is one byte (int8 inference, as in Gemmini).
package workload

import (
	"fmt"
	"slices"
	"strconv"
)

// ElemBytes is the tensor element size (int8 inference).
const ElemBytes = 1

// GEMM is one matrix multiplication: (M x K) * (K x N).
type GEMM struct {
	Name string
	M    int
	K    int
	N    int
	// Efficiency scales achievable MACs/cycle below peak for shapes
	// the array executes poorly (depthwise convolutions). 0 means 1.0.
	Efficiency float64
}

// Validate reports whether the GEMM dimensions are usable.
func (g GEMM) Validate() error {
	if g.M <= 0 || g.K <= 0 || g.N <= 0 {
		return fmt.Errorf("workload: GEMM %q has non-positive dims %dx%dx%d", g.Name, g.M, g.K, g.N)
	}
	return nil
}

// MACs returns the multiply-accumulate count.
func (g GEMM) MACs() int64 { return int64(g.M) * int64(g.K) * int64(g.N) }

// WeightBytes is the size of the B (weight) matrix.
func (g GEMM) WeightBytes() int64 { return int64(g.K) * int64(g.N) * ElemBytes }

// InputBytes is the size of the A (activation) matrix.
func (g GEMM) InputBytes() int64 { return int64(g.M) * int64(g.K) * ElemBytes }

// OutputBytes is the size of the C matrix.
func (g GEMM) OutputBytes() int64 { return int64(g.M) * int64(g.N) * ElemBytes }

// Eff returns the efficiency with the zero-value default applied.
func (g GEMM) Eff() float64 {
	if g.Efficiency <= 0 {
		return 1.0
	}
	return g.Efficiency
}

// Layer groups the GEMMs that execute between two scheduling
// boundaries (the paper's op-kernel scheduling granularity is the
// tile; flush granularities are expressed in layers).
type Layer struct {
	Name  string
	GEMMs []GEMM
}

// MACs sums the layer's work.
func (l Layer) MACs() int64 {
	var total int64
	for _, g := range l.GEMMs {
		total += g.MACs()
	}
	return total
}

// Workload is one end-to-end inference.
type Workload struct {
	Name   string
	Layers []Layer
}

// Validate checks every GEMM.
func (w Workload) Validate() error {
	if len(w.Layers) == 0 {
		return fmt.Errorf("workload: %q has no layers", w.Name)
	}
	for _, l := range w.Layers {
		if len(l.GEMMs) == 0 {
			return fmt.Errorf("workload: %q layer %q has no GEMMs", w.Name, l.Name)
		}
		for _, g := range l.GEMMs {
			if err := g.Validate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// MACs sums the whole model's work.
func (w Workload) MACs() int64 {
	var total int64
	for _, l := range w.Layers {
		total += l.MACs()
	}
	return total
}

// WeightBytes sums the whole model's weight footprint.
func (w Workload) WeightBytes() int64 {
	var total int64
	for _, l := range w.Layers {
		for _, g := range l.GEMMs {
			total += g.WeightBytes()
		}
	}
	return total
}

// GEMMCount reports the total GEMMs across layers.
func (w Workload) GEMMCount() int {
	n := 0
	for _, l := range w.Layers {
		n += len(l.GEMMs)
	}
	return n
}

// The layer builders: each operator is lowered to GEMMs here and only
// here, by the built-in models and the graph IR front end alike.

// Conv lowers a standard convolution to its im2col GEMM. h and w are
// the input spatial dims, c the input channels, k the filter count, r
// the (square) kernel size.
func Conv(name string, h, w, c, k, r, stride, pad int) GEMM {
	oh := (h+2*pad-r)/stride + 1
	ow := (w+2*pad-r)/stride + 1
	return GEMM{Name: name, M: oh * ow, K: c * r * r, N: k}
}

// DWConv lowers a depthwise convolution: each channel convolves
// independently, so the systolic array streams only r*r deep and
// cannot amortize its fill — modeled as a GEMM over all channels with
// a deep efficiency penalty.
func DWConv(name string, h, w, c, r, stride, pad int) GEMM {
	oh := (h+2*pad-r)/stride + 1
	ow := (w+2*pad-r)/stride + 1
	return GEMM{Name: name, M: oh * ow, K: r * r, N: c, Efficiency: 0.08}
}

// FC lowers a fully-connected layer at batch 1.
func FC(name string, in, out int) GEMM {
	return GEMM{Name: name, M: 1, K: in, N: out}
}

// MatMul describes a raw GEMM (a projection, a plain matrix product).
func MatMul(name string, m, k, n int) GEMM {
	return GEMM{Name: name, M: m, K: k, N: n}
}

// Attention lowers multi-head self-attention over seq tokens: the Q, K
// and V projections, one score and one context GEMM per head, and the
// output projection.
func Attention(name string, seq, hidden, heads int) []GEMM {
	return appendAttention(nil, name, seq, hidden, heads, seq, "context")
}

// CachedAttention lowers seq new tokens attending over a KV cache of
// ctx tokens (an autoregressive prefill or decode step). Only the
// context GEMMs' name ("_ctx_" instead of "_context_") tells it apart
// from Attention at ctx == seq.
func CachedAttention(name string, seq, hidden, heads, ctx int) []GEMM {
	return appendAttention(nil, name, seq, hidden, heads, ctx, "ctx")
}

// appendAttention appends the 4+2*heads GEMMs of one attention block to
// dst; ctxName names the per-head context GEMMs.
func appendAttention(dst []GEMM, name string, seq, hidden, heads, ctx int, ctxName string) []GEMM {
	headDim := hidden / heads
	dst = slices.Grow(dst, 4+2*heads)
	dst = append(dst,
		GEMM{Name: name + "_qproj", M: seq, K: hidden, N: hidden},
		GEMM{Name: name + "_kproj", M: seq, K: hidden, N: hidden},
		GEMM{Name: name + "_vproj", M: seq, K: hidden, N: hidden},
	)
	for h := 0; h < heads; h++ {
		hs := strconv.Itoa(h)
		dst = append(dst,
			GEMM{Name: name + "_scores_h" + hs, M: seq, K: headDim, N: ctx},
			GEMM{Name: name + "_" + ctxName + "_h" + hs, M: seq, K: ctx, N: headDim},
		)
	}
	return append(dst, GEMM{Name: name + "_outproj", M: seq, K: hidden, N: hidden})
}
