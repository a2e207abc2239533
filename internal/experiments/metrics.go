package experiments

import (
	"sync"

	"repro/internal/sim"
)

// Per-experiment metrics collection for snpu-bench's -metrics-dir
// mode: while collection is on, every SoC booted by an experiment
// registers its private counter sink here, and the bench harness
// drains the sinks into one obs.Registry per experiment after the
// cells complete. Registration order depends on the -j worker
// schedule, but the registry sums same-named counters across sinks —
// a commutative reduction — so the exported metrics are byte-identical
// at any worker count (the contract TestMetricsCollectionDeterminism
// pins).
var collect struct {
	mu      sync.Mutex
	enabled bool
	sinks   []*sim.Stats
}

// CollectSoCStats toggles stats-sink collection; enabling also clears
// any sinks left from a previous window. Safe from any goroutine.
func CollectSoCStats(on bool) {
	collect.mu.Lock()
	defer collect.mu.Unlock()
	collect.enabled = on
	collect.sinks = nil
}

// collecting reports whether a collection window is open. Pools check
// it to fall back to fresh boots, since collection counts one sink per
// boot.
func collecting() bool {
	collect.mu.Lock()
	defer collect.mu.Unlock()
	return collect.enabled
}

// RecordSoCStats registers one booted SoC's counter sink with the
// collector (no-op while collection is off). NewSoC, the one boot path
// (snpu.New boots through it too), calls it, so a collection window
// sees each system an experiment boots.
func RecordSoCStats(s *sim.Stats) {
	if s == nil {
		return
	}
	collect.mu.Lock()
	defer collect.mu.Unlock()
	if collect.enabled {
		collect.sinks = append(collect.sinks, s)
	}
}

// DrainSoCStats returns the sinks collected since the last drain (or
// enable) and clears the list, keeping collection on. The caller must
// only read the sinks after the owning cells finish — the experiment
// functions return only once their worker pool has drained, so calling
// this after an experiment completes is always safe.
func DrainSoCStats() []*sim.Stats {
	collect.mu.Lock()
	defer collect.mu.Unlock()
	out := collect.sinks
	collect.sinks = nil
	return out
}
