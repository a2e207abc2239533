package experiments

import (
	"fmt"

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

// fig15Splits are the trusted task's scratchpad shares a pair runs at.
// Under ID-based isolation the driver may pick any of them (security no
// longer depends on the split), so sNPU's total-best strategy chooses
// among all nine; the static partitions are three of them.
var fig15Splits = []float64{0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8}

// fig15Static names the paper's static partitions by their split.
var fig15Static = map[float64]string{0.25: "static-1/4", 0.5: "static-1/2", 0.75: "static-3/4"}

// Fig15 runs each pair once per split, normalizing each workload to its
// solo run with the full scratchpad. Each static partition reads its
// own split's run; sNPU's ID-based dynamic allocation takes the first
// split with the lowest worse-of-two normalized time, so a short task
// is not starved just because the long task dominates absolute time.
func Fig15(cfg npu.Config) (*Result[Fig15Row], error) {
	return fig15(cfg, Fig15Groups(), nil)
}

// Fig15From is Fig15 reusing a finished Fig. 1 result on the same
// config: a model's Fig. 1 cycles are its solo full-scratchpad run, so
// only the models fig1 lacks run solo. fig1 may be nil.
func Fig15From(cfg npu.Config, fig1 *Result[Fig1Row]) (*Result[Fig15Row], error) {
	solo := map[string]sim.Cycle{}
	if fig1 != nil {
		for _, r := range fig1.Rows {
			solo[r.Model] = r.Cycles
		}
	}
	return fig15(cfg, Fig15Groups(), solo)
}

// fig15 runs groups' pairs; solo holds the solo cycles already known
// (nil for none), and fig15 adds the ones it runs to it.
func fig15(cfg npu.Config, groups []Fig15Group, solo map[string]sim.Cycle) (*Result[Fig15Row], error) {
	// Phase 1: solo full-scratchpad baselines, one cell per distinct
	// model not yet known.
	var names []string
	seen := map[string]bool{}
	for _, grp := range groups {
		for _, n := range []string{grp.Trusted, grp.Untrusted} {
			if _, known := solo[n]; !seen[n] && !known {
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
		return c, err
	})
	if err != nil {
		return nil, err
	}
	if solo == nil {
		solo = map[string]sim.Cycle{}
	}
	for i, n := range names {
		solo[n] = soloCycles[i]
	}

	// Phase 2: the (group, split) grid, one pair run per cell.
	runs, err := runCells(len(groups)*len(fig15Splits), func(i int) (Fig15Row, error) {
		gi, split := i/len(fig15Splits), fig15Splits[i%len(fig15Splits)]
		grp := groups[gi]
		a, b, err := runSplit(cfg, grp.Trusted, grp.Untrusted, split)
		if err != nil {
			return Fig15Row{}, fmt.Errorf("fig15 %s+%s@%.2f: %w", grp.Trusted, grp.Untrusted, split, err)
		}
		row := Fig15Row{Group: fmt.Sprintf("group%d", gi+1), FractionA: split}
		row.Trusted.Model = grp.Trusted
		row.Trusted.Cycles = a
		row.Trusted.Normalized = float64(a) / float64(solo[grp.Trusted])
		row.Untrusted.Model = grp.Untrusted
		row.Untrusted.Cycles = b
		row.Untrusted.Normalized = float64(b) / float64(solo[grp.Untrusted])
		return row, nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 3: each policy reads the run at its split.
	var rows []Fig15Row
	for gi := range groups {
		group := runs[gi*len(fig15Splits) : (gi+1)*len(fig15Splits)]
		for _, r := range group {
			if name, ok := fig15Static[r.FractionA]; ok {
				r.Policy = name
				rows = append(rows, r)
			}
		}
		best := group[0]
		for _, r := range group[1:] {
			if worseOf(r) < worseOf(best) {
				best = r
			}
		}
		best.Policy = "snpu-dynamic"
		rows = append(rows, best)
	}
	return &Result[Fig15Row]{Rows: rows, Cols: fig15Cols}, nil
}

// worseOf is the total-best strategy's objective: the worse of the
// pair's two normalized times.
func worseOf(r Fig15Row) float64 {
	return max(r.Trusted.Normalized, r.Untrusted.Normalized)
}

// runSplit runs the trusted model on core 0 and the untrusted one on
// core 1 of a pooled SoC, the trusted task compiled for `split` of the
// scratchpad and the untrusted one for the rest. Both cores contend on
// the shared DRAM channel, which is what couples their runtimes.
func runSplit(cfg npu.Config, trusted, untrusted string, split float64) (sim.Cycle, sim.Cycle, error) {
	budgetA := int(float64(cfg.SpadBytes) * split)
	var progs [2]*npu.Program
	for i, c := range []struct {
		name   string
		budget int
	}{{trusted, budgetA}, {untrusted, cfg.SpadBytes - budgetA}} {
		w, err := workload.Lookup(c.name)
		if err != nil {
			return 0, 0, err
		}
		if progs[i], _, err = npu.CompileCached(w, cfg, c.budget, npu.DefaultLayout); err != nil {
			return 0, 0, err
		}
	}
	soc, err := AcquireSoC(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer soc.Release()
	return runPairOn(soc, progs[0], progs[1])
}
