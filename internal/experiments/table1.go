package experiments

import (
	"fmt"

	"repro/internal/npu"
	"repro/internal/spad"
	"repro/internal/workload"
)

// Table1Row is one isolation mechanism's qualitative profile
// (Table I), with the quantitative columns backed by measurements from
// the Fig. 14/15 harnesses rather than asserted.
type Table1Row struct {
	Mechanism   string
	Temporal    bool
	Spatial     bool
	Utilization string
	Performance string
	SLA         string
	// MeasuredOverheadPct is the measured cost backing the
	// Performance column (tile-flush slowdown, partition misfit, or
	// sNPU's sharing cost).
	MeasuredOverheadPct float64
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

var table1Cols = []Column[Table1Row]{
	Col("mechanism", "%s", func(r Table1Row) any { return r.Mechanism }),
	Col("temporal", "%s", func(r Table1Row) any { return yesNo(r.Temporal) }),
	Col("spatial", "%s", func(r Table1Row) any { return yesNo(r.Spatial) }),
	Col("utilization", "%s", func(r Table1Row) any { return r.Utilization }),
	Col("performance", "%s", func(r Table1Row) any { return r.Performance }),
	Col("sla", "%s", func(r Table1Row) any { return r.SLA }),
	Col("measured-overhead%", "%.1f", func(r Table1Row) any { return r.MeasuredOverheadPct }),
}

// Table1Model is the one model Table I measures: alexnet, the most
// scratchpad-sensitive.
const Table1Model = "alexnet"

// Table1 runs the cells Table I needs, Fig. 14 for Table1Model and all
// of Fig. 15, and derives the table from them (Table1From).
func Table1(cfg npu.Config) (*Result[Table1Row], error) {
	model, err := workload.Lookup(Table1Model)
	if err != nil {
		return nil, err
	}
	fl, err := Fig14([]workload.Workload{model}, cfg)
	if err != nil {
		return nil, err
	}
	f15, err := Fig15(cfg)
	if err != nil {
		return nil, err
	}
	return Table1From(fl, f15)
}

// Table1From derives the comparison from finished Fig. 14 and Fig. 15
// results without running a cell. fig14 may cover any model set that
// includes Table1Model; only that model's rows are read.
//   - Partition: supports both sharing modes but wastes capacity; its
//     overhead is the best static split's slowdown vs dynamic.
//   - Coarse flush (5 layers): cheap but cannot preempt quickly (poor
//     SLA).
//   - Fine flush (tile): preempts quickly but pays heavy save/restore.
//   - sNPU: both sharing modes, high utilization, good performance and
//     SLA (tile-granular switching at zero flush cost).
func Table1From(fig14 *Result[Fig14Row], fig15 *Result[Fig15Row]) (*Result[Table1Row], error) {
	var tilePct, coarsePct float64
	found := false
	for _, r := range fig14.Rows {
		if r.Model != Table1Model {
			continue
		}
		found = true
		switch r.Granularity {
		case spad.FlushPerTile.String():
			tilePct = (r.Normalized - 1) * 100
		case spad.FlushPer5Layers.String():
			coarsePct = (r.Normalized - 1) * 100
		}
	}
	if !found {
		return nil, fmt.Errorf("table1: fig14 has no %s rows", Table1Model)
	}
	// Partition overhead: the paper's point is that no single static
	// fraction suits every workload pair. Score each static policy by
	// its worst normalized slowdown across the three groups, take the
	// best such policy, and compare it against the dynamic policy's
	// worst case.
	worstOf := map[string]float64{}
	for _, r := range fig15.Rows {
		if m := worseOf(r); m > worstOf[r.Policy] {
			worstOf[r.Policy] = m
		}
	}
	dynamic := worstOf["snpu-dynamic"]
	bestStatic := 0.0
	for policy, w := range worstOf {
		if policy == "snpu-dynamic" {
			continue
		}
		if bestStatic == 0 || w < bestStatic {
			bestStatic = w
		}
	}
	partitionPct := 0.0
	if dynamic > 0 {
		partitionPct = (bestStatic/dynamic - 1) * 100
	}

	return &Result[Table1Row]{Cols: table1Cols, Rows: []Table1Row{
		{Mechanism: "partition", Temporal: true, Spatial: true, Utilization: "low",
			Performance: "low", SLA: "good", MeasuredOverheadPct: partitionPct},
		{Mechanism: "flush-coarse", Temporal: true, Spatial: false, Utilization: "low",
			Performance: "good", SLA: "poor", MeasuredOverheadPct: coarsePct},
		{Mechanism: "flush-fine", Temporal: true, Spatial: false, Utilization: "low",
			Performance: "low", SLA: "good", MeasuredOverheadPct: tilePct},
		{Mechanism: "snpu", Temporal: true, Spatial: true, Utilization: "high",
			Performance: "good", SLA: "good", MeasuredOverheadPct: 0},
	}}, nil
}
