package experiments

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig15Group pairs a trusted workload with an untrusted one, run in
// parallel on two cores under a shared scratchpad capacity.
type Fig15Group struct {
	Trusted, Untrusted string
}

// Fig15Groups splits the six workloads into the paper's three pairs,
// each combining a scratchpad-sensitive model (alexnet, bert, resnet)
// with a less sensitive partner.
func Fig15Groups() []Fig15Group {
	return []Fig15Group{
		{Trusted: "alexnet", Untrusted: "yololite"},
		{Trusted: "bert", Untrusted: "mobilenet"},
		{Trusted: "resnet", Untrusted: "googlenet"},
	}
}

// Fig15Row is one (group, policy) result.
type Fig15Row struct {
	Group   string
	Policy  string
	Trusted struct {
		Model      string
		Cycles     sim.Cycle
		Normalized float64 // vs its solo full-scratchpad run
	}
	Untrusted struct {
		Model      string
		Cycles     sim.Cycle
		Normalized float64
	}
	FractionA float64
}

var fig15Cols = []Column[Fig15Row]{
	Col("group", "%s", func(r Fig15Row) any { return r.Group }),
	Col("policy", "%s", func(r Fig15Row) any { return r.Policy }),
	Col("spad-fracA", "%.2f", func(r Fig15Row) any { return r.FractionA }),
	Col("trusted", "%s", func(r Fig15Row) any { return r.Trusted.Model }),
	Col("norm-time", "%.3f", func(r Fig15Row) any { return r.Trusted.Normalized }),
	Col("untrusted", "%s", func(r Fig15Row) any { return r.Untrusted.Model }),
	Col("norm-time", "%.3f", func(r Fig15Row) any { return r.Untrusted.Normalized }),
}

// Fig15 runs each pair under the three static partitions and under
// sNPU's ID-based dynamic allocation, normalizing each workload to its
// solo run with the full scratchpad.
func Fig15(cfg npu.Config) (*Result[Fig15Row], error) {
	groups := Fig15Groups()
	// Phase 1: solo full-scratchpad baselines, one cell per distinct
	// model.
	var names []string
	seen := map[string]bool{}
	for _, grp := range groups {
		for _, n := range []string{grp.Trusted, grp.Untrusted} {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	soloCycles, err := mapCells(names, func(name string) (sim.Cycle, error) {
		w, err := workload.Lookup(name)
		if err != nil {
			return 0, err
		}
		c, _, err := RunSolo(w, cfg)
		if err != nil {
			return 0, err
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	solo := map[string]sim.Cycle{}
	for i, n := range names {
		solo[n] = soloCycles[i]
	}

	// Phase 2: the (group, policy) grid, one spatial pair per cell.
	policies := append(driver.StaticPartitions(), driver.DynamicPolicy())
	rows, err := runCells(len(groups)*len(policies), func(i int) (Fig15Row, error) {
		gi, grp, pol := i/len(policies), groups[i/len(policies)], policies[i%len(policies)]
		wa, err := workload.Lookup(grp.Trusted)
		if err != nil {
			return Fig15Row{}, err
		}
		wb, err := workload.Lookup(grp.Untrusted)
		if err != nil {
			return Fig15Row{}, err
		}
		soloA, soloB := solo[grp.Trusted], solo[grp.Untrusted]
		soc, err := AcquireSoC(cfg)
		if err != nil {
			return Fig15Row{}, err
		}
		defer soc.Release()
		r, err := driver.RunSpatialPair(soc.NPU, wa, wb, pol, soloA, soloB)
		if err != nil {
			return Fig15Row{}, fmt.Errorf("fig15 %s+%s/%s: %w", grp.Trusted, grp.Untrusted, pol.Name, err)
		}
		row := Fig15Row{
			Group:     fmt.Sprintf("group%d", gi+1),
			Policy:    pol.Name,
			FractionA: r.FractionA,
		}
		row.Trusted.Model = grp.Trusted
		row.Trusted.Cycles = r.CyclesA
		row.Trusted.Normalized = float64(r.CyclesA) / float64(soloA)
		row.Untrusted.Model = grp.Untrusted
		row.Untrusted.Cycles = r.CyclesB
		row.Untrusted.Normalized = float64(r.CyclesB) / float64(soloB)
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result[Fig15Row]{Rows: rows, Cols: fig15Cols}, nil
}
