package experiments

import "repro/internal/hwcost"

// Fig18Row is one configuration's additional FPGA resources over the
// baseline NPU tile.
type Fig18Row struct {
	Config      string
	ExtraLUTPct float64
	ExtraFFPct  float64
	ExtraRAMPct float64
}

var fig18Cols = []Column[Fig18Row]{
	Col("config", "%s", func(r Fig18Row) any { return r.Config }),
	Col("extra-LUT%", "%.2f", func(r Fig18Row) any { return r.ExtraLUTPct }),
	Col("extra-FF%", "%.2f", func(r Fig18Row) any { return r.ExtraFFPct }),
	Col("extra-RAM%", "%.2f", func(r Fig18Row) any { return r.ExtraRAMPct }),
}

// Fig18 evaluates the analytic hardware-cost model for the paper's
// configurations: S_Reg, S_Spad, S_NoC (cumulative) and the TrustZone
// NPU's IOMMU.
func Fig18(p hwcost.Params) *Result[Fig18Row] {
	base := hwcost.Baseline(p)
	res := &Result[Fig18Row]{Cols: fig18Cols}
	for _, c := range hwcost.Fig18Configs(p) {
		lut, ff, ram := c.Extra.PercentOf(base)
		res.Rows = append(res.Rows, Fig18Row{
			Config: c.Name, ExtraLUTPct: lut, ExtraFFPct: ff, ExtraRAMPct: ram,
		})
	}
	return res
}
