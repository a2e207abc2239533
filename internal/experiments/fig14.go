package experiments

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/spad"
	"repro/internal/workload"
)

// Fig14Row is one (model, granularity) cell: normalized execution time
// of the measured task when two tasks time-share one core with
// flushing at the given granularity.
type Fig14Row struct {
	Model       string
	Granularity string
	Cycles      sim.Cycle
	// Normalized is runtime relative to ID-isolated sharing (no
	// flush); >1 means the flushing mechanism is slower.
	Normalized float64
}

var fig14Cols = []Column[Fig14Row]{
	Col("model", "%s", func(r Fig14Row) any { return r.Model }),
	Col("flush-granularity", "%s", func(r Fig14Row) any { return r.Granularity }),
	Col("cycles", "%d", func(r Fig14Row) any { return r.Cycles }),
	Col("normalized", "%.3f", func(r Fig14Row) any { return r.Normalized }),
	Col("overhead%", "%.1f", func(r Fig14Row) any { return (r.Normalized - 1) * 100 }),
}

// fig14Grans is the comparison set: tile / layer / 5-layer flushing.
var fig14Grans = []spad.FlushGranularity{
	spad.FlushPerTile, spad.FlushPerLayer, spad.FlushPer5Layers,
}

// Fig14 time-shares each model with a companion copy on one core. For
// each granularity it runs the schedule twice — with flushing (the
// TrustZone-NPU strawman) and without (sNPU's ID-isolated sharing,
// which needs no scrubbing at the same switching rate) — and reports
// the flush mechanism's overhead.
func Fig14(models []workload.Workload, cfg npu.Config) (*Result[Fig14Row], error) {
	run := func(w workload.Workload, gran spad.FlushGranularity, flush bool) (sim.Cycle, error) {
		soc, err := AcquireSoC(cfg)
		if err != nil {
			return 0, err
		}
		defer soc.Release()
		d := driver.New(cfg, ReservedBase, ReservedSize, soc.Stats)
		t1, err := d.Submit(w, npu.DefaultLayout, true)
		if err != nil {
			return 0, err
		}
		t2, err := d.Submit(w, npu.CompanionLayout, false)
		if err != nil {
			return 0, err
		}
		core, err := soc.NPU.Core(0)
		if err != nil {
			return 0, err
		}
		r, err := d.RunTimeShared(core, []*driver.Task{t1, t2}, gran, flush)
		if err != nil {
			return 0, err
		}
		return r.Makespan(), nil
	}
	rows, err := runCells(len(models)*len(fig14Grans), func(i int) (Fig14Row, error) {
		w, gran := models[i/len(fig14Grans)], fig14Grans[i%len(fig14Grans)]
		flushed, err := run(w, gran, true)
		if err != nil {
			return Fig14Row{}, fmt.Errorf("fig14 %s/%s: %w", w.Name, gran, err)
		}
		clean, err := run(w, gran, false)
		if err != nil {
			return Fig14Row{}, fmt.Errorf("fig14 %s/%s baseline: %w", w.Name, gran, err)
		}
		return Fig14Row{
			Model:       w.Name,
			Granularity: gran.String(),
			Cycles:      flushed,
			Normalized:  float64(flushed) / float64(clean),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result[Fig14Row]{Rows: rows, Cols: fig14Cols}, nil
}
