package npu

import "repro/internal/workload"

// MeasurementCalls reports how many times Measurement has run in this
// test binary.
func MeasurementCalls() int64 { return measureCalls.Load() }

// StrippedSlices compiles each core's slice of w for a parts-way
// model-parallel run and strips it the way RunModelParallel does.
func StrippedSlices(w workload.Workload, cfg Config, parts int) ([]*Program, error) {
	out := make([]*Program, parts)
	for i := range out {
		prog, _, err := CompileCached(sliceWorkload(w, i, parts, cfg.SystolicDim), cfg, 0, DefaultLayout)
		if err != nil {
			return nil, err
		}
		out[i] = stripOnChipActivations(prog)
	}
	return out, nil
}

// SliceWorkload is core part of parts' share of w in a model-parallel
// run.
func SliceWorkload(w workload.Workload, part, parts, dim int) workload.Workload {
	return sliceWorkload(w, part, parts, dim)
}

// ExpandOps returns p's op stream, walked with a Cursor.
func ExpandOps(p *Program) []Op {
	var ops []Op
	c := p.Cursor()
	for op, ok := c.Next(); ok; op, ok = c.Next() {
		ops = append(ops, op)
	}
	return ops
}

// Literal returns p in the literal form: a copy holding p's expanded
// op stream as Ops and no nests.
func Literal(p *Program) *Program {
	lit := *p
	lit.Ops, lit.Nests = ExpandOps(p), nil
	return &lit
}

// OpCount is the op count Validate derives for p without expanding it.
func OpCount(p *Program) (int, error) { return p.check() }
