package obs

import (
	"repro/internal/sim"
)

// Profiler is the pluggable profiling-hook manager: components
// register samplers (queue depths, link occupancy, channel backlog)
// and timed call sites tick MaybeSample with the current simulated
// cycle. Samples land on a fixed cadence of sampleEvery cycles — at
// most one sample set per period, taken by whichever component crosses
// the period boundary first — so the sample stream depends only on the
// simulated event stream, never on the wall clock.
//
// Each sampler feeds a histogram named <name>.samples: the
// distribution over the run, whose count is the number of sample sets
// taken.
type Profiler struct {
	reg   *Registry
	next  sim.Cycle
	hooks []hook
}

// hook is one registered sampler with its resolved histogram.
type hook struct {
	name string
	fn   func(now sim.Cycle) int64
	hist *Histogram
}

// NewProfiler builds a profiler sampling into reg.
func NewProfiler(reg *Registry) *Profiler {
	return &Profiler{reg: reg}
}

// Register adds a sampler. fn is called with the current simulated
// cycle and must be cheap and side-effect-free. Registering the same
// name twice keeps the first sampler (attachment helpers may run more
// than once). Safe on nil (no-op).
func (p *Profiler) Register(name string, fn func(now sim.Cycle) int64) {
	if p == nil {
		return
	}
	for _, h := range p.hooks {
		if h.name == name {
			return
		}
	}
	p.hooks = append(p.hooks, hook{name: name, fn: fn, hist: p.reg.Histogram(name + ".samples")})
}

// MaybeSample takes one sample set if the current cycle has crossed
// into a new sampling period, else returns immediately (one compare).
// Safe on nil.
func (p *Profiler) MaybeSample(now sim.Cycle) {
	if p == nil || now < p.next {
		return
	}
	for _, h := range p.hooks {
		h.hist.Observe(h.fn(now))
	}
	// Advance to the next period boundary after now; one sample per
	// period no matter how many cycles elapsed in between.
	p.next = (now/sampleEvery + 1) * sampleEvery
}
