// Package obs is the unified observability layer of the simulated SoC
// (beyond the paper; it exists to make the evaluation's §VI questions
// — where do stall cycles, extra NoC flits, and IOTLB walks go? —
// answerable from any run, not only from the curated figures).
//
// It bundles two instruments behind one Observer handle:
//
//   - a metrics Registry with dotted per-component names, exported as
//     Prometheus text and JSON. Every count lives in the SoC's
//     sim.Stats (noc.flits, monitor.aborts, sched.dispatch.count, ...),
//     which the registry attaches and sums at export time; the registry
//     itself holds only cycle histograms (noc.link.stall_cycles,
//     dma.xfer.cycles, ...), all on one fixed bucket layout so an
//     observation costs a constant-time index;
//   - span-based tracing over internal/trace, unifying the Chrome-trace
//     timeline with spans for NoC sends, DMA bursts, compute tiles,
//     IOTLB walks, fault injection, and Monitor checkpoint/restart
//     epochs. Each event is recorded once, by the component that
//     serves it.
//
// Determinism rules: nothing in this package reads the wall clock,
// global randomness, or map iteration order on a hot path; every
// export is sorted by name. Instrumentation is passive — attaching an
// Observer never changes a single simulated cycle — and off by
// default: an unattached component pays one nil check per event.
//
// Concurrency: histograms are single-writer, like sim.Stats — each
// simulated SoC is single-threaded, and parallel experiment cells own
// private SoCs. The Registry itself (registration, AttachStats,
// export) is mutex-guarded so one registry can aggregate many cells
// running under the -j N experiment runner.
package obs

import "repro/internal/trace"

// traceCap bounds the span recorder so long runs cannot grow without
// bound.
const traceCap = 1 << 20

// Config sizes an Observer. The zero value selects metrics on, span
// recording off.
type Config struct {
	// Spans opts into span recording (one trace event per NoC send,
	// DMA batch, compute tile, IOTLB walk, ...). Spans cost wall time
	// proportional to the event count — the same class as -trace — so
	// they sit outside the <2% budget the metrics overhead gate
	// enforces.
	Spans bool
}

// Observer is the per-SoC observability handle threaded through the
// components. A nil *Observer is valid everywhere and means
// "observability off"; all methods are nil-safe.
type Observer struct {
	reg *Registry
	rec *trace.Recorder
}

// NewObserver builds an enabled observer.
func NewObserver(cfg Config) *Observer {
	o := &Observer{reg: NewRegistry()}
	if cfg.Spans {
		o.rec = trace.New(traceCap)
	}
	return o
}

// Registry returns the metrics registry (nil on a nil observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Trace returns the span recorder. It is nil on a nil observer or
// when tracing is disabled; a nil *trace.Recorder is itself a valid
// no-op sink, so callers may record into it unconditionally.
func (o *Observer) Trace() *trace.Recorder {
	if o == nil {
		return nil
	}
	return o.rec
}
