package graph

import (
	"fmt"

	"repro/internal/workload"
)

// Lower validates a model and compiles it to a GEMM workload using the
// paper's lowering rules (§VI workloads): im2col for convolutions, the
// low-efficiency systolic mapping for depthwise convolutions, batch-1
// GEMMs for FC layers, and the per-head projection/score/context
// expansion for attention. Nodes sharing a layer tag pool their GEMMs
// into one scheduling layer; shape-only nodes (Pool, Reduce,
// element-wise, Concat) contribute no GEMMs, and a layer left with
// none is dropped.
//
// The result is byte-identical (workload.Canonical) to the hand-coded
// constructors for every committed testdata model — the drift test in
// this package pins that equivalence.
func Lower(m *Model) (workload.Workload, error) {
	shapes, err := m.Shapes()
	if err != nil {
		return workload.Workload{}, err
	}

	w := workload.Workload{Name: m.Name}
	var cur *workload.Layer
	for i := range m.Nodes {
		n := &m.Nodes[i]
		if n.OpKind == OpDecode {
			// A Decode node is multi-layer by construction: the prefill
			// pass plus every decode step, concatenated exactly as the
			// workload builder renders them (token boundaries become
			// layer boundaries). Layer names are prefixed with the node
			// so two Decode nodes in one graph cannot collide.
			spec, err := n.decodeSpec(shapes[n.Inputs[0]])
			if err != nil {
				return workload.Workload{}, err
			}
			for _, l := range spec.Flat().Layers {
				w.Layers = append(w.Layers, workload.Layer{
					Name: n.Name + "_" + l.Name, GEMMs: l.GEMMs,
				})
			}
			cur = nil
			continue
		}
		tag := n.layerTag()
		if cur == nil || cur.Name != tag {
			w.Layers = append(w.Layers, workload.Layer{Name: tag})
			cur = &w.Layers[len(w.Layers)-1]
		}
		gemms, err := lowerNode(n, shapes)
		if err != nil {
			return workload.Workload{}, err
		}
		cur.GEMMs = append(cur.GEMMs, gemms...)
	}

	// Drop layers that held only shape-only nodes.
	kept := w.Layers[:0]
	for _, l := range w.Layers {
		if len(l.GEMMs) > 0 {
			kept = append(kept, l)
		}
	}
	w.Layers = kept

	if err := w.Validate(); err != nil {
		return workload.Workload{}, fmt.Errorf("graph: lowered workload invalid: %w", err)
	}
	return w, nil
}

// lowerNode emits the GEMMs one node compiles to. Shapes were already
// inferred, so every access here is total.
func lowerNode(n *Node, shapes map[string]Shape) ([]workload.GEMM, error) {
	switch n.OpKind {
	case OpConv:
		in := shapes[n.Inputs[0]]
		stride := n.Attrs.Stride
		if stride == 0 {
			stride = 1
		}
		return []workload.GEMM{workload.Conv(
			n.Name, in[2], in[3], in[1], n.Attrs.Filters, n.Attrs.Kernel, stride, n.Attrs.Pad,
		)}, nil

	case OpDWConv:
		in := shapes[n.Inputs[0]]
		stride := n.Attrs.Stride
		if stride == 0 {
			stride = 1
		}
		return []workload.GEMM{workload.DWConv(
			n.Name, in[2], in[3], in[1], n.Attrs.Kernel, stride, n.Attrs.Pad,
		)}, nil

	case OpFC:
		in := shapes[n.Inputs[0]]
		return []workload.GEMM{workload.FC(n.Name, in.elems(), n.Attrs.Out)}, nil

	case OpGemm:
		in := shapes[n.Inputs[0]]
		return []workload.GEMM{workload.MatMul(n.Name, in[0], in[1], n.Attrs.Out)}, nil

	case OpMatMul:
		a, b := shapes[n.Inputs[0]], shapes[n.Inputs[1]]
		return []workload.GEMM{workload.MatMul(n.Name, a[0], a[1], b[1])}, nil

	case OpAttention:
		// A non-zero ctx models an autoregressive step attending over a
		// KV cache; otherwise scores and context run over the input's own
		// sequence.
		in := shapes[n.Inputs[0]]
		if n.Attrs.Ctx > 0 {
			return workload.CachedAttention(n.Name, in[0], in[1], n.Attrs.Heads, n.Attrs.Ctx), nil
		}
		return workload.Attention(n.Name, in[0], in[1], n.Attrs.Heads), nil

	case OpPool, OpReduce, OpAdd, OpMul, OpRelu, OpSoftmax, OpConcat:
		return nil, nil
	}
	return nil, fmt.Errorf("graph: node %q: unknown op %q", n.Name, n.OpKind)
}
