package obs

import (
	"math"
	"sync"
	"testing"

	"repro/internal/sim"
)

func TestDuplicateRegistrationReturnsSameHandle(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("dma.xfer.cycles")
	h2 := r.Histogram("dma.xfer.cycles")
	if h1 != h2 {
		t.Fatal("same histogram name returned distinct handles")
	}
	h1.Observe(3)
	if h2.Count() != 1 {
		t.Fatal("duplicate handle does not share state")
	}
}

// linearBucket is the reference bucket search: the first bound >= v,
// else +Inf.
func linearBucket(v int64) int {
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	return i
}

// TestBucketIndexMatchesLinearScan checks the constant-time index
// against a linear scan of the bounds at every bound, each bound +-1,
// zero, -1 and the int64 extremes.
func TestBucketIndexMatchesLinearScan(t *testing.T) {
	if bounds[0] != 1 || bounds[numBounds-1] != 1<<20 {
		t.Fatalf("bounds = %v, want 1, 4, ... 4^10", bounds)
	}
	vals := []int64{0, -1, math.MinInt64, math.MaxInt64, math.MaxInt64 - 1}
	for _, b := range bounds {
		vals = append(vals, b-1, b, b+1)
	}
	for _, v := range vals {
		if got, want := bucket(v), linearBucket(v); got != want {
			t.Fatalf("bucket(%d) = %d, linear scan = %d", v, got, want)
		}
	}
}

func TestHistogramBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	// Boundary values land in the bounded bucket ("le" convention);
	// anything above the last bound lands in +Inf.
	for _, v := range []int64{0, 1, 2, 4, 5, 16, 17, 1 << 40} {
		h.Observe(v)
	}
	// le=1: {0,1}; le=4: {2,4}; le=16: {5,16}; le=64: {17}; +Inf: {1<<40}
	want := []int64{2, 2, 2, 1, 0, 0, 0, 0, 0, 0, 0, 1}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	wantSum := int64(0 + 1 + 2 + 4 + 5 + 16 + 17 + 1<<40)
	if h.Sum() != wantSum {
		t.Fatalf("sum = %d, want %d", h.Sum(), wantSum)
	}
}

func TestAttachStatsSumsAcrossSinks(t *testing.T) {
	r := NewRegistry()
	a, b := sim.NewStats(), sim.NewStats()
	*a.Counter("noc.packets") = 3
	*b.Counter("noc.packets") = 4
	*b.Counter("dma.requests") = 1
	r.AttachStats(a)
	r.AttachStats(b)
	r.AttachStats(nil) // no-op
	snap := r.Snapshot()
	if snap["noc.packets"] != 7 {
		t.Fatalf("summed counter = %d, want 7", snap["noc.packets"])
	}
	if snap["dma.requests"] != 1 {
		t.Fatalf("sink-only counter = %d, want 1", snap["dma.requests"])
	}
}

// TestConcurrentRegistration registers, attaches and exports from
// concurrent goroutines (run under -race by the CI `-race` job).
// Instruments are single-writer and read after the run, so each
// goroutine uses its own names and a barrier holds every export until
// all observations are done; registration, AttachStats and Snapshot
// still interleave after it.
func TestConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	var wg, observed sync.WaitGroup
	observed.Add(8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			name := "worker." + string(rune('a'+id))
			h := r.Histogram(name + ".lat")
			for j := 0; j < 100; j++ {
				h.Observe(int64(j))
			}
			observed.Done()
			observed.Wait()
			r.Histogram(name + ".late")
			sink := sim.NewStats()
			*sink.Counter("shared.total") = 1
			r.AttachStats(sink)
			_ = r.Snapshot()
		}(i)
	}
	wg.Wait()
	if snap := r.Snapshot(); snap["shared.total"] != 8 {
		t.Fatalf("shared.total = %d, want 8", snap["shared.total"])
	}
	for i := 0; i < 8; i++ {
		name := "worker." + string(rune('a'+i))
		if n := r.Histogram(name + ".lat").Count(); n != 100 {
			t.Fatalf("%s.lat count = %d, want 100", name, n)
		}
		if n := r.Histogram(name + ".late").Count(); n != 0 {
			t.Fatalf("%s.late count = %d, want a registered 0", name, n)
		}
	}
}
