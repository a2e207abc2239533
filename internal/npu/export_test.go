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
