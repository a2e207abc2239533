package graph

import (
	"fmt"
	"sort"

	"repro/internal/workload"
)

// Shape inference and validation (beyond the paper; see the package
// doc). Validate walks the graph once in topological order, assigning
// every tensor a concrete shape and rejecting anything the lowering
// could not compile faithfully: dangling input references, cycles,
// dimension mismatches, attribute abuse, and graphs with no GEMM work
// at all.

// Shape is a tensor shape: [m, features] for 2-D tensors,
// [n, c, h, w] for 4-D ones.
type Shape []int

func (s Shape) String() string {
	out := "["
	for i, d := range s {
		if i > 0 {
			out += "x"
		}
		out += fmt.Sprint(d)
	}
	return out + "]"
}

func (s Shape) equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// elems multiplies the dims; caps on each dim keep this inside int64.
func (s Shape) elems() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// attrUse lists which attributes each op consumes; Validate rejects a
// node setting any other (fail-closed on typos and copy-paste).
var attrUse = map[Op]map[string]bool{
	OpGemm:      {"out": true},
	OpMatMul:    {},
	OpConv:      {"filters": true, "kernel": true, "stride": true, "pad": true},
	OpDWConv:    {"kernel": true, "stride": true, "pad": true},
	OpFC:        {"out": true},
	OpAttention: {"heads": true, "ctx": true},
	OpDecode:    {"heads": true, "steps": true, "kv": true, "ffn": true, "layers": true},
	OpPool:      {"kernel": true, "stride": true, "pad": true, "mode": true},
	OpReduce:    {"mode": true},
	OpAdd:       {},
	OpMul:       {},
	OpRelu:      {},
	OpSoftmax:   {},
	OpConcat:    {},
}

func (n *Node) checkAttrs() error {
	allowed := attrUse[n.OpKind]
	set := map[string]bool{
		"filters": n.Attrs.Filters != 0,
		"kernel":  n.Attrs.Kernel != 0,
		"stride":  n.Attrs.Stride != 0,
		"pad":     n.Attrs.Pad != 0,
		"out":     n.Attrs.Out != 0,
		"heads":   n.Attrs.Heads != 0,
		"ctx":     n.Attrs.Ctx != 0,
		"steps":   n.Attrs.Steps != 0,
		"kv":      n.Attrs.KV != 0,
		"ffn":     n.Attrs.FFN != 0,
		"layers":  n.Attrs.Layers != 0,
		"mode":    n.Attrs.Mode != "",
	}
	var bad []string
	for name, isSet := range set {
		if isSet && !allowed[name] {
			bad = append(bad, name)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("graph: node %q: attr %v not consumed by %s", n.Name, bad, n.OpKind)
	}
	for name, v := range map[string]int{
		"filters": n.Attrs.Filters, "kernel": n.Attrs.Kernel,
		"stride": n.Attrs.Stride, "pad": n.Attrs.Pad,
		"out": n.Attrs.Out, "ctx": n.Attrs.Ctx,
		"steps": n.Attrs.Steps, "kv": n.Attrs.KV,
		"ffn": n.Attrs.FFN, "layers": n.Attrs.Layers,
	} {
		if v < 0 || v > MaxDim {
			return fmt.Errorf("graph: node %q: attr %s=%d out of range [0,%d]", n.Name, name, v, MaxDim)
		}
	}
	if n.Attrs.Heads < 0 || n.Attrs.Heads > MaxHeads {
		return fmt.Errorf("graph: node %q: heads=%d out of range [0,%d]", n.Name, n.Attrs.Heads, MaxHeads)
	}
	if n.Attrs.Mode != "" && n.Attrs.Mode != "mean" && n.Attrs.Mode != "max" {
		return fmt.Errorf("graph: node %q: mode %q (want mean or max)", n.Name, n.Attrs.Mode)
	}
	return nil
}

func checkName(kind, name string) error {
	if name == "" {
		return fmt.Errorf("graph: empty %s name", kind)
	}
	if len(name) > MaxNameLen {
		return fmt.Errorf("graph: %s name %q exceeds %d bytes", kind, name[:16]+"...", MaxNameLen)
	}
	return nil
}

// Validate checks the whole document and runs shape inference,
// discarding the shapes. Use Shapes to keep them.
func (m *Model) Validate() error {
	_, err := m.Shapes()
	return err
}

// Shapes validates the model and returns the inferred shape of every
// tensor (graph inputs and node outputs).
func (m *Model) Shapes() (map[string]Shape, error) {
	if m == nil {
		return nil, fmt.Errorf("graph: nil model")
	}
	if m.IR != IRVersion {
		return nil, fmt.Errorf("graph: unsupported IR version %d (want %d)", m.IR, IRVersion)
	}
	if err := checkName("model", m.Name); err != nil {
		return nil, err
	}
	if len(m.Inputs) == 0 {
		return nil, fmt.Errorf("graph: %q declares no inputs", m.Name)
	}
	if len(m.Nodes) == 0 {
		return nil, fmt.Errorf("graph: %q has no nodes", m.Name)
	}
	if len(m.Nodes) > MaxNodes {
		return nil, fmt.Errorf("graph: %d nodes exceeds cap %d", len(m.Nodes), MaxNodes)
	}

	shapes := make(map[string]Shape, len(m.Inputs)+len(m.Nodes))
	for _, in := range m.Inputs {
		if err := checkName("input", in.Name); err != nil {
			return nil, err
		}
		if _, dup := shapes[in.Name]; dup {
			return nil, fmt.Errorf("graph: duplicate input %q", in.Name)
		}
		if len(in.Shape) != 2 && len(in.Shape) != 4 {
			return nil, fmt.Errorf("graph: input %q: shape must be 2-D or 4-D, got %d dims", in.Name, len(in.Shape))
		}
		for _, d := range in.Shape {
			if d <= 0 || d > MaxDim {
				return nil, fmt.Errorf("graph: input %q: dim %d out of range [1,%d]", in.Name, d, MaxDim)
			}
		}
		shapes[in.Name] = append(Shape(nil), in.Shape...)
	}

	// Node table: unique names, known ops, sane attrs.
	byName := make(map[string]int, len(m.Nodes))
	for i := range m.Nodes {
		n := &m.Nodes[i]
		if err := checkName("node", n.Name); err != nil {
			return nil, err
		}
		if len(n.Layer) > MaxNameLen {
			return nil, fmt.Errorf("graph: node %q: layer tag exceeds %d bytes", n.Name, MaxNameLen)
		}
		if _, dup := shapes[n.Name]; dup {
			return nil, fmt.Errorf("graph: node %q shadows a graph input", n.Name)
		}
		if _, dup := byName[n.Name]; dup {
			return nil, fmt.Errorf("graph: duplicate node %q", n.Name)
		}
		if _, known := ops[n.OpKind]; !known {
			return nil, fmt.Errorf("graph: node %q: unknown op %q", n.Name, n.OpKind)
		}
		if len(n.Inputs) == 0 {
			return nil, fmt.Errorf("graph: node %q has no inputs", n.Name)
		}
		if err := n.checkAttrs(); err != nil {
			return nil, err
		}
		byName[n.Name] = i
	}

	// Dangling references, then Kahn's algorithm for cycle detection.
	// Forward references are legal in the file; only cycles are not.
	indeg := make([]int, len(m.Nodes))
	succ := make([][]int, len(m.Nodes))
	for i := range m.Nodes {
		n := &m.Nodes[i]
		for _, ref := range n.Inputs {
			if _, isInput := shapes[ref]; isInput {
				continue
			}
			j, isNode := byName[ref]
			if !isNode {
				return nil, fmt.Errorf("graph: node %q: dangling input %q", n.Name, ref)
			}
			indeg[i]++
			succ[j] = append(succ[j], i)
		}
	}
	// Deterministic order: ready nodes release in file order.
	order := make([]int, 0, len(m.Nodes))
	ready := make([]int, 0, len(m.Nodes))
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		sort.Ints(ready)
		i := ready[0]
		ready = ready[1:]
		order = append(order, i)
		for _, j := range succ[i] {
			indeg[j]--
			if indeg[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	if len(order) != len(m.Nodes) {
		var stuck []string
		for i, d := range indeg {
			if d > 0 {
				stuck = append(stuck, m.Nodes[i].Name)
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("graph: cycle through %v", stuck)
	}

	// Shape inference in topological order.
	hasGEMMWork := false
	for _, i := range order {
		n := &m.Nodes[i]
		out, err := inferNode(n, shapes)
		if err != nil {
			return nil, err
		}
		shapes[n.Name] = out
		if ops[n.OpKind] {
			hasGEMMWork = true
		}
	}
	if !hasGEMMWork {
		return nil, fmt.Errorf("graph: %q lowers to no GEMM work (no Gemm/MatMul/Conv/DWConv/FC/Attention nodes)", m.Name)
	}

	// Layer tags must be contiguous runs in file order.
	seenTag := map[string]bool{}
	prevTag := ""
	for i := range m.Nodes {
		tag := m.Nodes[i].layerTag()
		if tag == prevTag {
			continue
		}
		if seenTag[tag] {
			return nil, fmt.Errorf("graph: layer %q is not contiguous in node order", tag)
		}
		seenTag[tag] = true
		prevTag = tag
	}

	// Declared outputs must resolve.
	if len(m.Outputs) == 0 {
		return nil, fmt.Errorf("graph: %q declares no outputs", m.Name)
	}
	for _, out := range m.Outputs {
		if _, ok := shapes[out]; !ok {
			return nil, fmt.Errorf("graph: output %q is not a defined tensor", out)
		}
	}
	return shapes, nil
}

// decodeSpec assembles a Decode node's workload.DecodeSpec from its
// input shape and attributes (DecodeSpec.WithDefaults fills ffn and
// layers) and runs the workload-side caps, so validation and lowering
// agree on exactly one spec.
func (n *Node) decodeSpec(in Shape) (workload.DecodeSpec, error) {
	spec := workload.DecodeSpec{
		Layers: n.Attrs.Layers, Hidden: in[1], Heads: n.Attrs.Heads,
		FFN: n.Attrs.FFN, Prompt: in[0], Steps: n.Attrs.Steps,
	}.WithDefaults()
	if err := spec.Validate(); err != nil {
		return workload.DecodeSpec{}, fmt.Errorf("graph: node %q: %w", n.Name, err)
	}
	return spec, nil
}

// layerTag is the scheduling-layer this node's GEMMs join.
func (n *Node) layerTag() string {
	if n.Layer != "" {
		return n.Layer
	}
	return n.Name
}

// arity returns the single input shape, enforcing exactly one input.
func oneInput(n *Node, shapes map[string]Shape) (Shape, error) {
	if len(n.Inputs) != 1 {
		return nil, fmt.Errorf("graph: node %q: %s takes exactly 1 input, got %d", n.Name, n.OpKind, len(n.Inputs))
	}
	return shapes[n.Inputs[0]], nil
}

// inferNode type-checks one node and returns its output shape.
func inferNode(n *Node, shapes map[string]Shape) (Shape, error) {
	switch n.OpKind {
	case OpConv, OpDWConv, OpPool:
		in, err := oneInput(n, shapes)
		if err != nil {
			return nil, err
		}
		if len(in) != 4 {
			return nil, fmt.Errorf("graph: node %q: %s needs a 4-D input, got %s", n.Name, n.OpKind, in)
		}
		bn, c, h, w := in[0], in[1], in[2], in[3]
		k := n.Attrs.Kernel
		if k <= 0 {
			return nil, fmt.Errorf("graph: node %q: %s needs kernel > 0", n.Name, n.OpKind)
		}
		stride := n.Attrs.Stride
		if stride == 0 {
			if n.OpKind == OpPool {
				stride = k // the common pool default
			} else {
				stride = 1
			}
		}
		pad := n.Attrs.Pad
		oh := (h+2*pad-k)/stride + 1
		ow := (w+2*pad-k)/stride + 1
		if h+2*pad < k || w+2*pad < k || oh <= 0 || ow <= 0 {
			return nil, fmt.Errorf("graph: node %q: kernel %d stride %d pad %d does not fit %s", n.Name, k, stride, pad, in)
		}
		switch n.OpKind {
		case OpConv:
			if n.Attrs.Filters <= 0 {
				return nil, fmt.Errorf("graph: node %q: Conv needs filters > 0", n.Name)
			}
			return Shape{bn, n.Attrs.Filters, oh, ow}, nil
		case OpDWConv:
			return Shape{bn, c, oh, ow}, nil
		default: // Pool
			return Shape{bn, c, oh, ow}, nil
		}

	case OpReduce:
		in, err := oneInput(n, shapes)
		if err != nil {
			return nil, err
		}
		if len(in) != 4 {
			return nil, fmt.Errorf("graph: node %q: Reduce needs a 4-D input, got %s", n.Name, in)
		}
		return Shape{in[0], in[1], 1, 1}, nil

	case OpFC:
		in, err := oneInput(n, shapes)
		if err != nil {
			return nil, err
		}
		if n.Attrs.Out <= 0 {
			return nil, fmt.Errorf("graph: node %q: FC needs out > 0", n.Name)
		}
		if in[0] != 1 {
			return nil, fmt.Errorf("graph: node %q: FC runs at batch 1, got leading dim %d (use Gemm for M > 1)", n.Name, in[0])
		}
		// 4-D inputs flatten (c*h*w) on the way in, matching the
		// hand-coded models' implicit flatten before their classifiers.
		return Shape{1, n.Attrs.Out}, nil

	case OpGemm:
		in, err := oneInput(n, shapes)
		if err != nil {
			return nil, err
		}
		if len(in) != 2 {
			return nil, fmt.Errorf("graph: node %q: Gemm needs a 2-D input, got %s", n.Name, in)
		}
		if n.Attrs.Out <= 0 {
			return nil, fmt.Errorf("graph: node %q: Gemm needs out > 0", n.Name)
		}
		return Shape{in[0], n.Attrs.Out}, nil

	case OpMatMul:
		if len(n.Inputs) != 2 {
			return nil, fmt.Errorf("graph: node %q: MatMul takes exactly 2 inputs, got %d", n.Name, len(n.Inputs))
		}
		a, b := shapes[n.Inputs[0]], shapes[n.Inputs[1]]
		if len(a) != 2 || len(b) != 2 {
			return nil, fmt.Errorf("graph: node %q: MatMul needs 2-D inputs, got %s and %s", n.Name, a, b)
		}
		if a[1] != b[0] {
			return nil, fmt.Errorf("graph: node %q: inner dims differ: %s x %s", n.Name, a, b)
		}
		return Shape{a[0], b[1]}, nil

	case OpAttention:
		in, err := oneInput(n, shapes)
		if err != nil {
			return nil, err
		}
		if len(in) != 2 {
			return nil, fmt.Errorf("graph: node %q: Attention needs a 2-D [seq, hidden] input, got %s", n.Name, in)
		}
		heads := n.Attrs.Heads
		if heads <= 0 {
			return nil, fmt.Errorf("graph: node %q: Attention needs heads > 0", n.Name)
		}
		if in[1]%heads != 0 {
			return nil, fmt.Errorf("graph: node %q: hidden %d not divisible by %d heads", n.Name, in[1], heads)
		}
		return Shape{in[0], in[1]}, nil

	case OpDecode:
		in, err := oneInput(n, shapes)
		if err != nil {
			return nil, err
		}
		if len(in) != 2 {
			return nil, fmt.Errorf("graph: node %q: Decode needs a 2-D [prompt, hidden] input, got %s", n.Name, in)
		}
		if n.Layer != "" {
			// A Decode node expands into many scheduling layers of its
			// own; folding it into a shared layer tag would break the
			// token boundaries the scheduler batches at.
			return nil, fmt.Errorf("graph: node %q: Decode cannot carry a layer tag", n.Name)
		}
		spec, err := n.decodeSpec(in)
		if err != nil {
			return nil, err
		}
		if n.Attrs.KV != 0 && n.Attrs.KV < spec.Prompt+spec.Steps {
			return nil, fmt.Errorf("graph: node %q: kv capacity %d below prompt+steps = %d",
				n.Name, n.Attrs.KV, spec.Prompt+spec.Steps)
		}
		// The decode emits one token per pass; its output is the last
		// token's hidden state.
		return Shape{1, in[1]}, nil

	case OpAdd, OpMul:
		if len(n.Inputs) < 2 {
			return nil, fmt.Errorf("graph: node %q: %s takes at least 2 inputs", n.Name, n.OpKind)
		}
		first := shapes[n.Inputs[0]]
		for _, ref := range n.Inputs[1:] {
			if !shapes[ref].equal(first) {
				return nil, fmt.Errorf("graph: node %q: shape mismatch %s vs %s (%q)", n.Name, first, shapes[ref], ref)
			}
		}
		return append(Shape(nil), first...), nil

	case OpRelu, OpSoftmax:
		in, err := oneInput(n, shapes)
		if err != nil {
			return nil, err
		}
		return append(Shape(nil), in...), nil

	case OpConcat:
		if len(n.Inputs) < 2 {
			return nil, fmt.Errorf("graph: node %q: Concat takes at least 2 inputs", n.Name)
		}
		first := shapes[n.Inputs[0]]
		total := first[1] // channel axis for 4-D, feature axis for 2-D
		for _, ref := range n.Inputs[1:] {
			s := shapes[ref]
			if len(s) != len(first) {
				return nil, fmt.Errorf("graph: node %q: rank mismatch %s vs %s", n.Name, first, s)
			}
			for d := range s {
				if d == 1 {
					continue
				}
				if s[d] != first[d] {
					return nil, fmt.Errorf("graph: node %q: non-channel dim mismatch %s vs %s", n.Name, first, s)
				}
			}
			total += s[1]
		}
		if total > MaxDim {
			return nil, fmt.Errorf("graph: node %q: concatenated channels %d exceed %d", n.Name, total, MaxDim)
		}
		out := append(Shape(nil), first...)
		out[1] = total
		return out, nil
	}
	return nil, fmt.Errorf("graph: node %q: unknown op %q", n.Name, n.OpKind)
}
