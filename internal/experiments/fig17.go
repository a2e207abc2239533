package experiments

import (
	"fmt"

	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig17Row is one (model, method) cell of the NoC application test: a
// model run model-parallel over a 2x2 block of cores (output channels
// split per layer, activation slices all-gathered after each layer),
// with the exchange carried per method.
type Fig17Row struct {
	Model  string
	Method string
	Cycles sim.Cycle
	// TransferCycles is the time spent in inter-core exchanges.
	TransferCycles sim.Cycle
	// Normalized is runtime relative to the unauthorized NoC (the
	// paper's Fig. 17 baseline; 1.0 = same, >1 = slower).
	Normalized float64
}

var fig17Cols = []Column[Fig17Row]{
	Col("model", "%s", func(r Fig17Row) any { return r.Model }),
	Col("method", "%s", func(r Fig17Row) any { return r.Method }),
	Col("cycles", "%d", func(r Fig17Row) any { return r.Cycles }),
	Col("transfer-cycles", "%d", func(r Fig17Row) any { return r.TransferCycles }),
	Col("normalized", "%.3f", func(r Fig17Row) any { return r.Normalized }),
}

// Fig17 runs each model over a 2x2 core block under three transfer
// methods: the unauthorized direct NoC, the peephole NoC, and the
// software NoC through shared memory.
// fig17Methods is the transfer-method comparison set; the first entry
// is the normalization baseline.
var fig17Methods = []struct {
	name     string
	peephole bool
	mode     npu.TransferMode
}{
	{"unauthorized-noc", false, npu.TransferNoC},
	{"peephole-noc", true, npu.TransferNoC},
	{"software-noc", false, npu.TransferSharedMemory},
}

func Fig17(models []workload.Workload, cfg npu.Config) (*Result[Fig17Row], error) {
	rows, err := runCells(len(models)*len(fig17Methods), func(i int) (Fig17Row, error) {
		w, method := models[i/len(fig17Methods)], fig17Methods[i%len(fig17Methods)]
		mcfg := cfg
		mcfg.Peephole = method.peephole
		soc, err := AcquireSoC(mcfg)
		if err != nil {
			return Fig17Row{}, err
		}
		defer soc.Release()
		// A 2x2 block on the 5-wide mesh: cores 0,1 (row 0) and
		// 5,6 (row 1).
		coreIDs := []int{0, 1, 5, 6}
		if method.peephole {
			// Secure the block so its members authenticate mutually.
			if err := soc.NPU.SetCoreDomains(soc.Machine.SecureContext(), coreIDs, 1); err != nil {
				return Fig17Row{}, err
			}
		}
		r, err := soc.NPU.RunModelParallel(w, coreIDs, method.mode, nil)
		if err != nil {
			return Fig17Row{}, fmt.Errorf("fig17 %s/%s: %w", w.Name, method.name, err)
		}
		return Fig17Row{
			Model:          w.Name,
			Method:         method.name,
			Cycles:         r.TotalCycles,
			TransferCycles: r.TransferCycles,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for m := 0; m < len(models); m++ {
		group := rows[m*len(fig17Methods) : (m+1)*len(fig17Methods)]
		baseline := group[0].Cycles // unauthorized-noc
		for i := range group {
			if baseline > 0 {
				group[i].Normalized = float64(group[i].Cycles) / float64(baseline)
			}
		}
	}
	return &Result[Fig17Row]{Rows: rows, Cols: fig17Cols}, nil
}
