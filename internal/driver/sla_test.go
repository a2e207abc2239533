package driver

import (
	"testing"

	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/spad"
)

func TestPreemptionLatencyOrdering(t *testing.T) {
	// Finer switching granularity must deliver lower preemption
	// latency; coarser flushing buys throughput at the cost of SLA.
	d, n := testSetup(t)
	core, _ := n.Core(0)
	low, err := d.Submit(smallWorkload("low"), npu.DefaultLayout, false)
	if err != nil {
		t.Fatal(err)
	}
	arrival := sim.Cycle(15_000) // mid-run: the small workload takes ~47k cycles solo
	latency := func(gran spad.FlushGranularity, flush bool) sim.Cycle {
		n.ResetTiming()
		r, err := d.MeasurePreemption(core, low, arrival, gran, flush)
		if err != nil {
			t.Fatal(err)
		}
		if r.StartCycle < r.ArrivalCycle {
			t.Fatalf("started before arrival: %+v", r)
		}
		return r.Latency()
	}
	snpuTile := latency(spad.FlushPerTile, false)
	flushTile := latency(spad.FlushPerTile, true)
	coarse := latency(spad.FlushPer5Layers, true)
	if snpuTile > flushTile {
		t.Fatalf("sNPU tile switch (%d) slower than flushing tile switch (%d)", snpuTile, flushTile)
	}
	if flushTile >= coarse {
		t.Fatalf("tile preemption (%d) not faster than 5-layer preemption (%d)", flushTile, coarse)
	}
	// sNPU's preemption is bounded by one op-kernel, i.e. small.
	if snpuTile > 200_000 {
		t.Fatalf("sNPU preemption latency %d suspiciously large", snpuTile)
	}
}

func TestPreemptionAfterLowFinishes(t *testing.T) {
	d, n := testSetup(t)
	core, _ := n.Core(0)
	low, err := d.Submit(smallWorkload("low"), npu.DefaultLayout, false)
	if err != nil {
		t.Fatal(err)
	}
	// Arrival far beyond the low task's completion: the core is idle,
	// so there is no boundary to wait for and nothing to flush.
	r, err := d.MeasurePreemption(core, low, 1<<40, spad.FlushPer5Layers, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Latency() != 0 {
		t.Fatalf("idle-core preemption latency = %d, want 0", r.Latency())
	}
}
