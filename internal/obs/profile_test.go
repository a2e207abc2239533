package obs

import (
	"testing"

	"repro/internal/sim"
)

func TestProfilerCadence(t *testing.T) {
	r := NewRegistry()
	p := NewProfiler(r)
	var depth int64
	calls := 0
	p.Register("q.depth", func(now sim.Cycle) int64 { calls++; return depth })

	depth = 5
	p.MaybeSample(0) // first period boundary: samples
	p.MaybeSample(1) // same period: skipped
	p.MaybeSample(sampleEvery - 1)
	if calls != 1 {
		t.Fatalf("sampler ran %d times inside one period, want 1", calls)
	}
	depth = 9
	p.MaybeSample(sampleEvery) // next period
	if calls != 2 {
		t.Fatalf("sampler ran %d times after two periods, want 2", calls)
	}
	h := r.Histogram("q.depth.samples")
	if h.Count() != 2 || h.Sum() != 14 {
		t.Fatalf("sample histogram count %d sum %d, want 2 samples summing to 14", h.Count(), h.Sum())
	}
}

// One sample per period no matter how many cycles the simulation
// jumped — the stream depends only on period boundaries crossed, so
// the same event stream always yields the same samples.
func TestProfilerSkipsWholePeriods(t *testing.T) {
	r := NewRegistry()
	p := NewProfiler(r)
	calls := 0
	p.Register("x", func(now sim.Cycle) int64 { calls++; return 0 })
	const e = sampleEvery
	p.MaybeSample(0)
	p.MaybeSample(9*e + 5)  // skipped 9 whole periods: still one sample
	p.MaybeSample(10*e - 1) // same period as 9e+5
	p.MaybeSample(10 * e)
	if calls != 3 {
		t.Fatalf("sampler ran %d times, want 3 (at 0, 9e+5, 10e)", calls)
	}
}

func TestProfilerDuplicateRegisterKeepsFirst(t *testing.T) {
	r := NewRegistry()
	p := NewProfiler(r)
	p.Register("d", func(now sim.Cycle) int64 { return 1 })
	p.Register("d", func(now sim.Cycle) int64 { return 2 }) // ignored
	p.MaybeSample(0)
	if h := r.Histogram("d.samples"); h.Count() != 1 || h.Sum() != 1 {
		t.Fatalf("samples count %d sum %d, want one sample of 1 (first sampler wins)", h.Count(), h.Sum())
	}
}

func TestProfilerNilSafe(t *testing.T) {
	var p *Profiler
	p.Register("x", func(now sim.Cycle) int64 { return 0 })
	p.MaybeSample(42)
}

func TestObserverNilSafe(t *testing.T) {
	var o *Observer
	if o.Registry() != nil || o.Trace() != nil || o.Profiler() != nil {
		t.Fatal("nil observer accessors must return nil")
	}
}

func TestNewObserverDefaults(t *testing.T) {
	o := NewObserver(Config{})
	if o.Registry() == nil || o.Profiler() == nil {
		t.Fatal("default observer missing registry or profiler")
	}
	if o.Trace() != nil {
		t.Fatal("default observer must not record spans (opt-in via Spans)")
	}
	ow := NewObserver(Config{Spans: true})
	if ow.Trace() == nil {
		t.Fatal("Spans: true must enable the recorder")
	}
}
