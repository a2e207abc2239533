package main

import (
	"fmt"
	"math"
	"sort"
)

// p90MinSamples is the smallest sample count p90 is reported for: it
// leaves at least ten samples beyond the percentile.
const p90MinSamples = 100

// quantile is one reported percentile and the samples it rests on.
type quantile struct {
	Value float64
	N     int
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank method. p90 and above refuse fewer than p90MinSamples
// samples, so a tail figure always has ten samples behind it.
func percentile(xs []float64, p float64) (quantile, error) {
	if len(xs) == 0 {
		return quantile{}, fmt.Errorf("p%g of no samples", p)
	}
	if p >= 90 && len(xs) < p90MinSamples {
		return quantile{}, fmt.Errorf("p%g needs at least %d samples, have %d", p, p90MinSamples, len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return quantile{Value: s[rank], N: len(s)}, nil
}

// median is the middle sample (mean of the two middle ones for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics an untraced run reports, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"heap_mb", "MB"},
	{"sim_latency_p90_mcyc", "Mcyc"},
	{"sim_throughput_per_mcyc", "1/Mcyc"},
}

// perLayer lists the metrics a traced run reports. A name ending in _ms
// is the mean wall time per call of the span of that name; counts are
// per operation over the sequence prefix unless noted in README.md.
// Layers a workload never calls read 0.
var perLayer = []struct{ name, unit string }{
	{"snpu.request_ms", "ms"},
	{"npu.compile_ms", "ms"},
	{"npu.measurement_ms", "ms"},
	{"monitor.submit_ms", "ms"},
	{"tee.attest_ms", "ms"},
	{"tee.verify_ms", "ms"},
	{"monitor.load_ms", "ms"},
	{"monitor.unload_ms", "ms"},
	{"npu.exec_ms", "ms"},
	{"npu.exec_ns_per_op", "ns"},
	{"dma.requests", "count"},
	{"xlate.requests", "count"},
	{"guarder.checks", "count"},
	{"npu.compile_misses", "count"},
	{"npu.compile_hit_ratio", "ratio"},
	{"serve.episode_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.result_ms", "ms"},
	{"graph.parse_ms", "ms"},
	{"graph.validate_ms", "ms"},
	{"graph.lower_ms", "ms"},
	{"sched.decisions", "count"},
	{"sched.preemptions", "count"},
	{"sched.batched_share", "ratio"},
	{"sched.retries", "count"},
	{"sched.tokens", "count"},
	{"sched.kv_allocs", "count"},
	{"sched.flush_mcyc", "Mcyc"},
	{"sched.queue_wait_p50_mcyc", "Mcyc"},
	{"monitor.calls", "count"},
	{"monitor.rejected", "count"},
	{"experiments.table1_ms", "ms"},
	{"experiments.fig13_ms", "ms"},
	{"experiments.fig14_ms", "ms"},
	{"experiments.fig17_ms", "ms"},
	{"experiments.pool_hit_ratio", "ratio"},
	{"iommu.iotlb_hit_ratio", "ratio"},
	{"iommu.pagewalks", "count"},
	{"spad.flush_bytes", "bytes"},
	{"noc.flits", "count"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"perfbench.trace_overhead_pct", "%"},
}
