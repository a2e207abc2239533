package snpu

import "repro/internal/experiments"

// systems pools the protected Systems of the root-level sweeps (serve,
// resilience, decode, chaos): each point used to boot a full protected
// SoC — regions, boot chain, NPU, guarders, monitor — and that churn
// is what the GC turned into negative parallel scaling. It is an
// experiments.Pool, so the experiment cells' switches apply:
// experiments.SetPooling(false) forces fresh boots (the differential
// tests use this), and an open -metrics-dir collection window disables
// reuse.
var systems experiments.Pool[Config, *System]

// acquireSystem returns a ready protected System — recycled when one
// is pooled, freshly booted otherwise.
func acquireSystem() (*System, error) {
	return systems.Get(DefaultConfig(), func() (*System, error) { return New(DefaultConfig()) })
}

// release hands the system back to the pool, which scrubs it with
// Reset.
func (s *System) release() { systems.Put(s.cfg, s, s.Reset) }

// SystemPoolCounters reports lifetime pool hits and misses (bench
// reporting and tests).
func SystemPoolCounters() (hits, misses uint64) { return systems.Counters() }
