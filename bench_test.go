package snpu

// The benchmark harness: one testing.B target per table/figure of the
// paper's evaluation (§VI). Each bench regenerates its experiment's
// data on the simulated SoC and reports the headline numbers as
// custom metrics, so `go test -bench=. -benchmem` reproduces the
// whole evaluation. EXPERIMENTS.md records the paper-vs-measured
// comparison; cmd/snpu-bench prints the full tables.

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/hwcost"
	"repro/internal/npu"
	"repro/internal/workload"
)

// metricName builds a ReportMetric unit (no whitespace allowed).
func metricName(unit, param string) string {
	return strings.ReplaceAll(unit+"/"+param, " ", "_")
}

// benchModels returns the evaluation set; -short trims it so quick
// runs stay quick.
func benchModels(b *testing.B) []workload.Workload {
	if testing.Short() {
		var out []workload.Workload
		for _, n := range []string{"alexnet", "yololite"} {
			w, err := workload.Lookup(n)
			if err != nil {
				b.Fatal(err)
			}
			out = append(out, w)
		}
		return out
	}
	return workload.All()
}

// BenchmarkFig01Utilization regenerates Fig. 1: FLOPS utilization of
// single inference workloads (< 50% for most models).
func BenchmarkFig01Utilization(b *testing.B) {
	cfg := npu.DefaultConfig()
	models := benchModels(b)
	var res *experiments.Result[experiments.Fig1Row]
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig1(models, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sum float64
	for _, r := range res.Rows {
		b.ReportMetric(r.Utilization*100, "util%/"+r.Model)
		sum += r.Utilization
	}
	b.ReportMetric(sum/float64(len(res.Rows))*100, "util%/mean")
}

// BenchmarkTable01IsolationMechanisms regenerates Table I's measured
// columns (partition vs flush vs sNPU).
func BenchmarkTable01IsolationMechanisms(b *testing.B) {
	cfg := npu.DefaultConfig()
	var res *experiments.Result[experiments.Table1Row]
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res.Rows {
		b.ReportMetric(r.MeasuredOverheadPct, "overhead%/"+r.Mechanism)
	}
}

// BenchmarkFig13aAccessControl regenerates Fig. 13(a): normalized
// performance under IOMMU (IOTLB-4..32) vs NPU Guarder.
func BenchmarkFig13aAccessControl(b *testing.B) {
	cfg := npu.DefaultConfig()
	models := benchModels(b)
	var res *experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig13(models, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	agg := map[string][]float64{}
	for _, r := range res.Rows {
		agg[r.Mechanism] = append(agg[r.Mechanism], r.Slowdown())
	}
	for mech, vals := range agg {
		var max float64
		for _, v := range vals {
			if v > max {
				max = v
			}
		}
		b.ReportMetric(max, "max-slowdown%/"+mech)
	}
}

// BenchmarkFig13bCheckingRequests regenerates Fig. 13(b): Guarder
// translation requests as a fraction of the IOMMU's.
func BenchmarkFig13bCheckingRequests(b *testing.B) {
	cfg := npu.DefaultConfig()
	models := benchModels(b)
	var res *experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig13(models, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res.Rows {
		if r.Mechanism == "guarder" {
			b.ReportMetric(r.RequestsVsIOMMU*100, "req-vs-iommu%/"+r.Model)
		}
	}
}

// BenchmarkFig14FlushGranularity regenerates Fig. 14: time-shared
// execution under tile / layer / 5-layer flushing.
func BenchmarkFig14FlushGranularity(b *testing.B) {
	cfg := npu.DefaultConfig()
	models := benchModels(b)
	var res *experiments.Result[experiments.Fig14Row]
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig14(models, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	agg := map[string][]float64{}
	for _, r := range res.Rows {
		agg[r.Granularity] = append(agg[r.Granularity], (r.Normalized-1)*100)
	}
	for gran, vals := range agg {
		var sum float64
		for _, v := range vals {
			sum += v
		}
		b.ReportMetric(sum/float64(len(vals)), "overhead%/"+gran)
	}
}

// BenchmarkFig15ScratchpadIsolation regenerates Fig. 15: static
// partition vs ID-based dynamic allocation on paired workloads.
func BenchmarkFig15ScratchpadIsolation(b *testing.B) {
	cfg := npu.DefaultConfig()
	var res *experiments.Result[experiments.Fig15Row]
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig15(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res.Rows {
		worst := r.Trusted.Normalized
		if r.Untrusted.Normalized > worst {
			worst = r.Untrusted.Normalized
		}
		b.ReportMetric(worst, "makespan-norm/"+r.Group+"/"+r.Policy)
	}
}

// BenchmarkFig16NoCMicro regenerates Fig. 16: transfer cost over the
// software NoC, unauthorized NoC, and peephole NoC.
func BenchmarkFig16NoCMicro(b *testing.B) {
	cfg := npu.DefaultConfig()
	var res *experiments.Result[experiments.Fig16Row]
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig16(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res.Rows {
		if r.Lines == 1024 {
			b.ReportMetric(r.BandwidthBPC, "B-per-cycle/"+r.Method)
		}
	}
}

// BenchmarkFig17NoCApp regenerates Fig. 17: pipelined multi-core
// inference with NoC vs shared-memory transfers.
func BenchmarkFig17NoCApp(b *testing.B) {
	cfg := npu.DefaultConfig()
	models := benchModels(b)
	var res *experiments.Result[experiments.Fig17Row]
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig17(models, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	agg := map[string][]float64{}
	for _, r := range res.Rows {
		agg[r.Method] = append(agg[r.Method], r.Normalized)
	}
	for method, vals := range agg {
		var sum float64
		for _, v := range vals {
			sum += v
		}
		b.ReportMetric(sum/float64(len(vals)), "norm-time/"+method)
	}
}

// BenchmarkFig18HardwareCost regenerates Fig. 18: extra FPGA
// resources per protection mechanism.
func BenchmarkFig18HardwareCost(b *testing.B) {
	p := hwcost.DefaultParams()
	var res *experiments.Result[experiments.Fig18Row]
	for i := 0; i < b.N; i++ {
		res = experiments.Fig18(p)
	}
	for _, r := range res.Rows {
		b.ReportMetric(r.ExtraRAMPct, "extra-ram%/"+r.Config)
		b.ReportMetric(r.ExtraLUTPct, "extra-lut%/"+r.Config)
	}
}

// BenchmarkTCBSize regenerates the §VI-F TCB analysis over this
// repository's packages.
func BenchmarkTCBSize(b *testing.B) {
	var res *experiments.TCBResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.TCB()
		if err != nil {
			b.Fatal(err)
		}
	}
	trusted, untrusted := res.Totals()
	b.ReportMetric(float64(trusted), "tcb-loc")
	b.ReportMetric(float64(untrusted), "untrusted-loc")
}

// BenchmarkAblationIOTLBSweep extends the Fig. 13(a) entry sweep.
func BenchmarkAblationIOTLBSweep(b *testing.B) {
	cfg := npu.DefaultConfig()
	var res *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblationIOTLBSweep("yololite", cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res.Rows {
		b.ReportMetric(r.Value, metricName(r.Unit, r.Param))
	}
}

// BenchmarkAblationSpadBudget sweeps scratchpad budget vs. traffic
// (the Fig. 15 mechanism).
func BenchmarkAblationSpadBudget(b *testing.B) {
	cfg := npu.DefaultConfig()
	var res *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblationSpadBudget("alexnet", cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res.Rows {
		b.ReportMetric(r.Value, metricName(r.Unit, r.Param))
	}
}

// BenchmarkAblationMultiDomain scales §VII's ID-bit width.
func BenchmarkAblationMultiDomain(b *testing.B) {
	var res *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		res = experiments.AblationMultiDomain()
	}
	for _, r := range res.Rows {
		b.ReportMetric(r.Value, metricName(r.Unit, r.Param))
	}
}

// BenchmarkAblationL2 toggles the shared L2 in the DMA path.
func BenchmarkAblationL2(b *testing.B) {
	cfg := npu.DefaultConfig()
	var res *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblationL2("alexnet", cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res.Rows {
		b.ReportMetric(r.Value, metricName(r.Unit, r.Param))
	}
}

// BenchmarkAblationPreemption quantifies the SLA column of Table I.
func BenchmarkAblationPreemption(b *testing.B) {
	cfg := npu.DefaultConfig()
	var res *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblationPreemption("yololite", cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res.Rows {
		b.ReportMetric(r.Value, metricName(r.Unit, r.Param))
	}
}

// BenchmarkAblationCheckingEnergy backs Fig. 13(b)'s energy argument
// with the first-order energy model.
func BenchmarkAblationCheckingEnergy(b *testing.B) {
	cfg := npu.DefaultConfig()
	var res *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblationCheckingEnergy("yololite", cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res.Rows {
		b.ReportMetric(r.Value, metricName(r.Unit, r.Param))
	}
}

// BenchmarkAblationMulticast compares unicast vs tree-multicast
// all-gather among a 2x2 block.
func BenchmarkAblationMulticast(b *testing.B) {
	cfg := npu.DefaultConfig()
	var res *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblationMulticast(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res.Rows {
		b.ReportMetric(r.Value, metricName(r.Unit, r.Param))
	}
}

// BenchmarkAblationBandwidth sweeps DRAM bandwidth.
func BenchmarkAblationBandwidth(b *testing.B) {
	cfg := npu.DefaultConfig()
	var res *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblationBandwidth("alexnet", cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res.Rows {
		b.ReportMetric(r.Value, metricName(r.Unit, r.Param))
	}
}

// BenchmarkDecodeServing regenerates the decode sweep (beyond-paper)
// and reports each batch point's token throughput and inter-token
// tail as custom metrics.
func BenchmarkDecodeServing(b *testing.B) {
	var res *experiments.Result[Episode]
	for i := 0; i < b.N; i++ {
		var err error
		res, err = DecodeBench(1, false)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		param := "batch" + strconv.Itoa(row.MaxBatch)
		_, p99 := row.InterToken()
		b.ReportMetric(row.TokensPerSec(), metricName("tok-per-sec", param))
		b.ReportMetric(float64(p99), metricName("p99-itl-cyc", param))
	}
}

// BenchmarkEndToEndInference measures the facade's whole-system path
// (boot + compile + map + run) per model.
func BenchmarkEndToEndInference(b *testing.B) {
	for _, name := range []string{"yololite", "alexnet"} {
		name := name
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, err := New(DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sys.RunModel(name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
