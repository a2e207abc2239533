package experiments

import (
	"fmt"

	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig1Row is one bar of Fig. 1: the compute utilization a single
// inference achieves on one NPU core.
type Fig1Row struct {
	Model  string
	Cycles sim.Cycle
	// Utilization is achieved MACs/cycle over peak MACs/cycle.
	Utilization float64
}

var fig1Cols = []Column[Fig1Row]{
	Col("model", "%s", func(r Fig1Row) any { return r.Model }),
	Col("cycles", "%d", func(r Fig1Row) any { return r.Cycles }),
	Col("flops-utilization", "%.1f%%", func(r Fig1Row) any { return r.Utilization * 100 }),
}

// Fig1 measures per-model utilization of a solo inference — the
// motivation figure: most workloads leave more than half the compute
// idle, which is why multi-tasking (and hence multi-task isolation)
// matters.
func Fig1(models []workload.Workload, cfg npu.Config) (*Result[Fig1Row], error) {
	rows, err := mapCells(models, func(w workload.Workload) (Fig1Row, error) {
		cycles, _, err := RunSolo(w, Mechanism{Name: "none"}, cfg)
		if err != nil {
			return Fig1Row{}, fmt.Errorf("fig1 %s: %w", w.Name, err)
		}
		prog, _, err := npu.CompileCached(w, cfg, 0, npu.DefaultLayout)
		if err != nil {
			return Fig1Row{}, err
		}
		return Fig1Row{
			Model:       w.Name,
			Cycles:      cycles,
			Utilization: npu.Utilization(prog, cycles, cfg.SystolicDim),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result[Fig1Row]{Rows: rows, Cols: fig1Cols}, nil
}
