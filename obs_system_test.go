package snpu

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The observability layer's system-level contract: attaching it is
// passive (golden cycle counts hold, spans on or off), its export
// covers every instrumented component, and the Monitor's recovery
// ladder shows up as trace epochs.

func TestObservabilityIsPassive(t *testing.T) {
	for _, spans := range []bool{false, true} {
		sys, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		o := sys.EnableObservability(obs.Config{Spans: spans})
		if sys.Observer() != o {
			t.Fatal("Observer() does not return the enabled observer")
		}
		res, err := sys.RunModel("yololite")
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != goldenYololiteCycles {
			t.Fatalf("spans=%v: observability moved the golden run: %d cycles, want %d",
				spans, res.Cycles, goldenYololiteCycles)
		}
		rec := o.Trace()
		if spans && rec.Len() == 0 {
			t.Fatal("Spans: true recorded nothing")
		}
		if !spans && rec != nil {
			t.Fatal("default config must not carry a span recorder")
		}
		if spans {
			if tot := rec.Totals(); tot[trace.KindDMA] == 0 {
				t.Fatalf("no DMA span time on the timeline: %v", tot)
			}
		}
	}
}

func TestMetricsExportCoversComponents(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableObservability(obs.Config{})
	if _, err := sys.RunModel("yololite"); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := sys.Observer().Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// The acceptance floor: metrics from at least five components. The
	// canonical sim.Stats namespace plus the registered instruments
	// must all appear, zeros included.
	for _, prefix := range []string{
		"noc_", // mesh counters + noc_link_stall_cycles histogram
		"dma_", // engine counters + dma_xfer_cycles histogram
		"npu_", // npu_tile_cycles histogram
		"iommu_",
		"iotlb_", // iotlb hit/miss counters
		"monitor_",
		"guarder_",
		"spad_",
	} {
		if !strings.Contains(out, "TYPE "+prefix) {
			t.Fatalf("export missing component prefix %q:\n%s", prefix, out)
		}
	}
	// Contention is recorded exactly per request (dma.xfer.cycles,
	// noc.link.stall_cycles); no sampled second view is exported.
	if strings.Contains(out, "_samples") {
		t.Fatalf("export carries a _samples series:\n%s", out)
	}
	// A busy run must show non-zero work counters.
	snap := sys.Observer().Registry().Snapshot()
	for _, name := range []string{"dma.requests", "dma.bytes", "npu.macs", "guarder.checks"} {
		if snap[name] == 0 {
			t.Fatalf("counter %s = 0 after a full inference", name)
		}
	}
}

// The DMA engine is the one recorder of loads and stores: a traced run
// holds each batch once, so no two DMA spans share a core, a start and
// an end, and the timeline's DMA total counts each transfer once.
func TestTraceRecordsEachDMABatchOnce(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	o := sys.EnableObservability(obs.Config{Spans: true})
	if _, err := sys.RunModel("yololite"); err != nil {
		t.Fatal(err)
	}
	type burst struct {
		core       int
		start, end sim.Cycle
	}
	seen := map[burst]bool{}
	dups := 0
	for _, e := range o.Trace().Events() {
		if e.Kind != trace.KindDMA {
			continue
		}
		b := burst{e.Core, e.Start, e.End}
		if seen[b] {
			dups++
		}
		seen[b] = true
	}
	if len(seen) == 0 {
		t.Fatal("no DMA spans on the timeline")
	}
	if dups > 0 {
		t.Fatalf("%d duplicate DMA spans among %d distinct", dups, len(seen))
	}
}

func TestResilientRunRecordsEpochsAndMonitorSpans(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	o := sys.EnableObservability(obs.Config{Spans: true})
	key := ChaosKey(3)
	if err := sys.ProvisionKey("owner", key); err != nil {
		t.Fatal(err)
	}
	sealed, err := SealModel(key, []byte("weights"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.SubmitSecure("yololite", "owner", sealed)
	if err != nil {
		t.Fatal(err)
	}
	sys.InstallFaultPlan(fault.Plan{Events: []fault.Event{
		{At: 900_000, Kind: fault.CoreHang},
	}})
	rep, err := sys.RunSecureResilient(h)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restarts == 0 {
		t.Fatal("plan fired no restart; the epoch assertion below would be vacuous")
	}
	eps := o.Trace().Epochs()
	if len(eps) != 1+rep.Restarts {
		t.Fatalf("epochs = %d, want pre + %d restarts (%+v)", len(eps), rep.Restarts, eps)
	}
	if eps[0].Name != "pre" || eps[1].Name != "restart-1" {
		t.Fatalf("epoch names = %+v", eps)
	}
	names := map[string]int{}
	for _, e := range o.Trace().Events() {
		names[e.Name]++
	}
	for _, want := range []string{"monitor.abort", "monitor.restore", "fault.core-hang"} {
		if names[want] == 0 {
			t.Fatalf("timeline missing %q spans (have %v)", want, names)
		}
	}
}
