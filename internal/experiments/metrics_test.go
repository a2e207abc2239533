package experiments

import (
	"strings"
	"testing"

	"repro/internal/npu"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// exportCollected runs fn inside a stats-collection window and returns
// the aggregated Prometheus export of every SoC sink it registered.
func exportCollected(t *testing.T, fn func() error) string {
	t.Helper()
	CollectSoCStats(true)
	defer CollectSoCStats(false)
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	for _, s := range DrainSoCStats() {
		reg.AttachStats(s)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestMetricsCollectionDeterminism pins the -metrics-dir contract: the
// aggregated per-experiment metrics are byte-identical at any worker
// count. Sinks register in pool-completion order, which varies with
// -j, but the registry sums same-named counters commutatively and
// exports sorted, so the order cannot show.
func TestMetricsCollectionDeterminism(t *testing.T) {
	cfg := npu.DefaultConfig()
	run := func(workers int) string {
		old := Workers()
		SetWorkers(workers)
		defer SetWorkers(old)
		return exportCollected(t, func() error {
			_, err := Fig16(cfg)
			return err
		})
	}
	seq := run(1)
	par := run(4)
	if seq != par {
		t.Fatalf("aggregated metrics differ between -j 1 and -j 4:\n--- j1 ---\n%s\n--- j4 ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "noc_flits") || !strings.Contains(seq, "dma_bytes") {
		t.Fatalf("aggregated export missing expected counters:\n%s", seq)
	}
}

func TestCollectSoCStatsWindow(t *testing.T) {
	// Outside a window, RecordSoCStats drops sinks.
	RecordSoCStats(sim.NewStats())
	CollectSoCStats(true)
	s := sim.NewStats()
	*s.Counter("x") = 1
	RecordSoCStats(s)
	RecordSoCStats(nil) // no-op
	sinks := DrainSoCStats()
	if len(sinks) != 1 || sinks[0] != s {
		t.Fatalf("sinks = %v, want exactly the one recorded inside the window", sinks)
	}
	// Drain clears but keeps collecting.
	RecordSoCStats(sim.NewStats())
	if got := len(DrainSoCStats()); got != 1 {
		t.Fatalf("post-drain sink count = %d, want 1", got)
	}
	CollectSoCStats(false)
	RecordSoCStats(sim.NewStats())
	if got := len(DrainSoCStats()); got != 0 {
		t.Fatalf("disabled window recorded %d sinks, want 0", got)
	}
}

// Regression: a pooled cell's SoC used to be scrubbed at release even
// inside a collection window, zeroing its registered sink before the
// export, so -metrics-dir wrote 0 for every counter of Fig. 13.
func TestCollectedSinksKeepCounters(t *testing.T) {
	w, err := workload.Lookup("yololite")
	if err != nil {
		t.Fatal(err)
	}
	CollectSoCStats(true)
	defer CollectSoCStats(false)
	if _, err := Fig13([]workload.Workload{w}, npu.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	var lookups, requests int64
	for _, s := range DrainSoCStats() {
		lookups += s.Get(sim.CtrIOTLBLookups)
		requests += s.Get(sim.CtrDMARequests)
	}
	if lookups == 0 || requests == 0 {
		t.Fatalf("collected sinks read %s=%d and %s=%d; released SoCs were scrubbed before export",
			sim.CtrIOTLBLookups, lookups, sim.CtrDMARequests, requests)
	}
}
