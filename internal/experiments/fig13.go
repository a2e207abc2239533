package experiments

import (
	"fmt"

	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig13Row is one (model, mechanism) cell of Fig. 13.
type Fig13Row struct {
	Model     string
	Mechanism string
	Cycles    sim.Cycle
	// Normalized is throughput relative to the unprotected baseline
	// (1.0 = no slowdown; the paper's Fig. 13(a) y-axis).
	Normalized float64
	// Requests is the translation/checking request count (the
	// Fig. 13(b) energy proxy).
	Requests int64
	// RequestsVsIOMMU is Requests divided by the iotlb-32 count for
	// the same model (Guarder rows only; 0 elsewhere).
	RequestsVsIOMMU float64
}

// Fig13Result holds the whole figure.
type Fig13Result struct {
	Rows []Fig13Row
}

// Fig13 runs every model under every access-control mechanism. Each
// (model, mechanism) cell is independent — the contended pair boots its
// own SoC — so the full grid fans out over the worker pool; the
// per-model normalization is a cheap sequential pass over the gathered
// rows.
func Fig13(models []workload.Workload, cfg npu.Config) (*Fig13Result, error) {
	mechs := Fig13Mechanisms()
	rows, err := runCells(len(models)*len(mechs), func(i int) (Fig13Row, error) {
		w, mech := models[i/len(mechs)], mechs[i%len(mechs)]
		cycles, stats, err := RunContended(w, mech, cfg)
		if err != nil {
			return Fig13Row{}, fmt.Errorf("fig13 %s/%s: %w", w.Name, mech.Name, err)
		}
		return Fig13Row{
			Model:     w.Name,
			Mechanism: mech.Name,
			Cycles:    cycles,
			Requests:  stats[sim.CtrTranslations],
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for m := 0; m < len(models); m++ {
		group := rows[m*len(mechs) : (m+1)*len(mechs)]
		baselineCycles := sim.Cycle(0)
		iommuReqs := int64(0)
		for _, r := range group {
			switch r.Mechanism {
			case "none":
				baselineCycles = r.Cycles
			case "iotlb-32":
				iommuReqs = r.Requests
			}
		}
		for i := range group {
			if baselineCycles > 0 {
				group[i].Normalized = float64(baselineCycles) / float64(group[i].Cycles)
			}
			if group[i].Mechanism == "guarder" && iommuReqs > 0 {
				group[i].RequestsVsIOMMU = float64(group[i].Requests) / float64(iommuReqs)
			}
		}
	}
	return &Fig13Result{Rows: rows}, nil
}

// Slowdown reports 1 - Normalized as a percentage for a row.
func (r Fig13Row) Slowdown() float64 { return (1 - r.Normalized) * 100 }

var (
	fig13Model     = Col("model", "%s", func(r Fig13Row) any { return r.Model })
	fig13Mechanism = Col("mechanism", "%s", func(r Fig13Row) any { return r.Mechanism })
)

// TableA renders the Fig. 13(a) view (normalized performance).
func (f *Fig13Result) TableA() string {
	return Render(f.Rows, []Column[Fig13Row]{
		fig13Model, fig13Mechanism,
		Col("cycles", "%d", func(r Fig13Row) any { return r.Cycles }),
		Col("normalized", "%.3f", func(r Fig13Row) any { return r.Normalized }),
		Col("slowdown%", "%.1f", func(r Fig13Row) any { return r.Slowdown() }),
	})
}

// TableB renders the Fig. 13(b) view (translation request counts).
func (f *Fig13Result) TableB() string {
	return Render(f.Rows, []Column[Fig13Row]{
		fig13Model, fig13Mechanism,
		Col("xlate-requests", "%d", func(r Fig13Row) any { return r.Requests }),
		Col("vs-iommu", "%s", func(r Fig13Row) any {
			if r.RequestsVsIOMMU <= 0 {
				return ""
			}
			return fmt.Sprintf("%.1f%%", r.RequestsVsIOMMU*100)
		}),
	})
}
