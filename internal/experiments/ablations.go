package experiments

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/energy"
	"repro/internal/hwcost"
	"repro/internal/noc"
	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/spad"
	"repro/internal/workload"
)

// Ablations for the design choices the headline figures take as
// given: IOTLB sizing beyond the paper's 4..32 sweep, the exchange
// transaction size behind Fig. 17, scratchpad budget vs. DMA traffic
// (the mechanism behind Fig. 15), multi-domain ID-bit scaling (§VII),
// the L2's effect on the memory system, and preemption latency (the
// SLA column of Table I, quantified).

// AblationRow is a generic (parameter, value) measurement.
type AblationRow struct {
	Param string
	Value float64
	Unit  string
}

// AblationResult names a sweep.
type AblationResult struct {
	Name string
	Rows []AblationRow
}

var ablationCols = []Column[AblationRow]{
	Col("param", "%s", func(r AblationRow) any { return r.Param }),
	Col("value", "%.3f", func(r AblationRow) any { return r.Value }),
	Col("unit", "%s", func(r AblationRow) any { return r.Unit }),
}

// TableString renders the sweep.
func (a *AblationResult) TableString() string { return Render(a.Rows, ablationCols) }

// AblationIOTLBSweep extends Fig. 13(a)'s entry sweep (2..128 entries)
// on one model, reporting the slowdown vs. the unprotected baseline.
func AblationIOTLBSweep(model string, cfg npu.Config) (*AblationResult, error) {
	w, err := workload.Lookup(model)
	if err != nil {
		return nil, err
	}
	base, _, err := RunContended(w, Mechanism{Name: "none"}, cfg)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Name: "iotlb-sweep/" + model}
	rows, err := mapCells([]int{2, 4, 8, 16, 32, 64, 128}, func(entries int) (AblationRow, error) {
		cycles, _, err := RunContended(w, Mechanism{Name: fmt.Sprintf("iotlb-%d", entries), IOTLBEntries: entries}, cfg)
		if err != nil {
			return AblationRow{}, err
		}
		return AblationRow{
			Param: fmt.Sprintf("entries=%d", entries),
			Value: (float64(cycles)/float64(base) - 1) * 100,
			Unit:  "slowdown%",
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// AblationSpadBudget sweeps the scratchpad budget for one model and
// reports the tiler's DRAM traffic — the curve that makes Fig. 15's
// partition sensitivity.
func AblationSpadBudget(model string, cfg npu.Config) (*AblationResult, error) {
	w, err := workload.Lookup(model)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Name: "spad-budget/" + model}
	for _, frac := range []float64{0.125, 0.25, 0.5, 0.75, 1.0} {
		budget := int(float64(cfg.SpadBytes) * frac)
		_, st, err := npu.CompileCached(w, cfg, budget, npu.DefaultLayout)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Param: fmt.Sprintf("budget=%.0f%%", frac*100),
			Value: float64(st.TrafficBytes) / (1 << 20),
			Unit:  "MB-traffic",
		})
	}
	return res, nil
}

// AblationMultiDomain scales the per-line ID tag from 1 bit (two
// domains, the paper's default) to 4 bits (§VII "Multiple Secure
// Domains") and reports the scratchpad RAM overhead.
func AblationMultiDomain() *AblationResult {
	res := &AblationResult{Name: "multi-domain"}
	p := hwcost.DefaultParams()
	base := hwcost.Baseline(p)
	for bits := 1; bits <= 4; bits++ {
		p.IDBits = bits
		_, _, ram := hwcost.SSpad(p).PercentOf(base)
		res.Rows = append(res.Rows, AblationRow{
			Param: fmt.Sprintf("id-bits=%d (%d domains)", bits, 1<<bits),
			Value: ram,
			Unit:  "extra-RAM%",
		})
	}
	return res
}

// AblationL2 compares one model's runtime with the DMA path going
// straight to DRAM (default) vs. through the shared L2 (Table II).
func AblationL2(model string, cfg npu.Config) (*AblationResult, error) {
	w, err := workload.Lookup(model)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Name: "l2/" + model}
	var baseline sim.Cycle
	for _, useL2 := range []bool{false, true} {
		c := cfg
		c.UseL2 = useL2
		cycles, _, err := RunSolo(w, c)
		if err != nil {
			return nil, err
		}
		name := "dram-direct"
		if useL2 {
			name = "through-l2"
		}
		if !useL2 {
			baseline = cycles
		}
		res.Rows = append(res.Rows, AblationRow{Param: name, Value: float64(cycles), Unit: "cycles"})
		if useL2 && baseline > 0 {
			res.Rows = append(res.Rows, AblationRow{
				Param: "l2-speedup",
				Value: (float64(baseline)/float64(cycles) - 1) * 100,
				Unit:  "%",
			})
		}
	}
	return res, nil
}

// AblationMulticast compares unicast vs tree-multicast all-gather
// among a 2x2 core block over the transaction-size sweep of Fig. 16.
func AblationMulticast(cfg npu.Config) (*AblationResult, error) {
	res := &AblationResult{Name: "multicast-allgather"}
	dstsOf := func(src noc.Coord, all []noc.Coord) []noc.Coord {
		var out []noc.Coord
		for _, c := range all {
			if c != src {
				out = append(out, c)
			}
		}
		return out
	}
	block := []noc.Coord{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}}
	for _, lines := range []int{16, 64, 256} {
		uniStats, multiStats := sim.NewStats(), sim.NewStats()
		RecordSoCStats(uniStats)
		RecordSoCStats(multiStats)
		uni, err := noc.NewMesh(noc.DefaultConfig(2, 2, false), uniStats)
		if err != nil {
			return nil, err
		}
		multi, err := noc.NewMesh(noc.DefaultConfig(2, 2, false), multiStats)
		if err != nil {
			return nil, err
		}
		var uniDone, multiDone sim.Cycle
		for _, src := range block {
			for _, dst := range dstsOf(src, block) {
				done, err := uni.Send(noc.Packet{Src: src, Dst: dst, Flits: lines}, 0)
				if err != nil {
					return nil, err
				}
				if done > uniDone {
					uniDone = done
				}
			}
			done, err := multi.Multicast(noc.Packet{Src: src, Flits: lines}, dstsOf(src, block), 0)
			if err != nil {
				return nil, err
			}
			if done > multiDone {
				multiDone = done
			}
		}
		res.Rows = append(res.Rows,
			AblationRow{Param: fmt.Sprintf("unicast lines=%d", lines), Value: float64(uniDone), Unit: "cycles"},
			AblationRow{Param: fmt.Sprintf("multicast lines=%d", lines), Value: float64(multiDone), Unit: "cycles"},
		)
	}
	return res, nil
}

// AblationCheckingEnergy backs Fig. 13(b)'s energy argument with the
// first-order energy model: the access-control energy of a real
// contended run under IOMMU vs Guarder, per model.
func AblationCheckingEnergy(model string, cfg npu.Config) (*AblationResult, error) {
	w, err := workload.Lookup(model)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Name: "checking-energy/" + model}
	costs := energy.DefaultCosts()
	var iommuUJ float64
	for _, mech := range []Mechanism{
		{Name: "iotlb-32", IOTLBEntries: 32},
		{Name: "guarder", Guarder: true},
	} {
		_, stats, err := RunContended(w, mech, cfg)
		if err != nil {
			return nil, err
		}
		b := energy.FromCounters(costs, stats)
		res.Rows = append(res.Rows, AblationRow{
			Param: mech.Name + " checking-energy",
			Value: b.CheckingUJ,
			Unit:  "uJ",
		})
		if mech.IOTLBEntries > 0 {
			iommuUJ = b.CheckingUJ
		} else if iommuUJ > 0 {
			res.Rows = append(res.Rows, AblationRow{
				Param: "guarder-vs-iommu",
				Value: b.CheckingUJ / iommuUJ * 100,
				Unit:  "%",
			})
		}
	}
	return res, nil
}

// AblationBandwidth sweeps the DRAM bandwidth to locate each regime:
// at low bandwidth the models are memory bound (access-control stalls
// hide), at high bandwidth compute bound (Fig. 13's stalls matter even
// less). The knee is where Table II's 16 GB/s sits.
func AblationBandwidth(model string, cfg npu.Config) (*AblationResult, error) {
	w, err := workload.Lookup(model)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Name: "dram-bandwidth/" + model}
	rows, err := mapCells([]uint64{4, 8, 16, 32, 64}, func(bpc uint64) (AblationRow, error) {
		c := cfg
		c.DRAMBytesPerCycle = bpc
		cycles, _, err := RunSolo(w, c)
		if err != nil {
			return AblationRow{}, err
		}
		return AblationRow{
			Param: fmt.Sprintf("%d GB/s", bpc),
			Value: float64(cycles),
			Unit:  "cycles",
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// AblationPreemption quantifies Table I's SLA column: preemption
// latency of a secure arrival under each sharing mechanism.
func AblationPreemption(model string, cfg npu.Config) (*AblationResult, error) {
	w, err := workload.Lookup(model)
	if err != nil {
		return nil, err
	}
	soc, err := AcquireSoC(cfg)
	if err != nil {
		return nil, err
	}
	defer soc.Release()
	d := driver.New(cfg, ReservedBase, ReservedSize, soc.Stats)
	low, err := d.Submit(w, 0, false)
	if err != nil {
		return nil, err
	}
	core, err := soc.NPU.Core(0)
	if err != nil {
		return nil, err
	}
	solo, err := npu.NewExec(core, low.Program, low.ID).Run(0)
	if err != nil {
		return nil, err
	}
	arrival := solo / 3
	res := &AblationResult{Name: "preemption/" + model}
	for _, c := range []struct {
		name  string
		gran  spad.FlushGranularity
		flush bool
	}{
		{"snpu-tile", spad.FlushNone, false},
		{"flush-tile", spad.FlushPerTile, true},
		{"flush-layer", spad.FlushPerLayer, true},
		{"flush-5layers", spad.FlushPer5Layers, true},
	} {
		soc.NPU.ResetTiming()
		r, err := d.SLAProbe(core, low, c.gran, c.flush, arrival)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Param: c.name,
			Value: float64(r.Latency()),
			Unit:  "cycles-to-preempt",
		})
	}
	return res, nil
}
