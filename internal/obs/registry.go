package obs

import (
	"math/bits"
	"sort"
	"sync"

	"repro/internal/sim"
)

// numBounds is the number of bounded histogram buckets. Every
// histogram shares one layout: upper bounds 1, 4, 16, ... 4^10 (~1M
// cycles = ~1ms at 1 GHz), wide enough for anything from a single flit
// hop to a full layer, plus an implicit +Inf bucket.
const numBounds = 11

// bounds holds the fixed bucket upper bounds, bounds[i] = 4^i.
var bounds = [numBounds]int64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}

// bucket returns the index of the first bucket whose upper bound is
// >= v (boundary values belong to the bounded bucket, the Prometheus
// "le" convention): the ceiling of log4(v), read off the bit length of
// v-1, with everything above 4^10 in the +Inf bucket.
func bucket(v int64) int {
	if v <= 1 {
		return 0
	}
	return min((bits.Len64(uint64(v-1))+1)/2, numBounds)
}

// Histogram buckets observations (typically cycle spans) under the
// fixed bounds above. Observe is allocation-free and constant-time.
// Histograms are single-writer: one simulated SoC owns its instruments.
type Histogram struct {
	counts [numBounds + 1]int64 // counts[i] holds v <= bounds[i]; last is +Inf
	sum    int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.counts[bucket(v)]++
	h.sum += v
}

// Count reports total observations.
func (h *Histogram) Count() int64 {
	n := int64(0)
	for _, c := range h.counts {
		n += c
	}
	return n
}

// Sum reports the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum }

// BucketCounts returns per-bucket (non-cumulative) counts; the last
// entry is the +Inf bucket.
func (h *Histogram) BucketCounts() []int64 { return append([]int64(nil), h.counts[:]...) }

// Registry is one metric namespace: the attached sim.Stats counter
// sinks plus named cycle histograms. Names are dotted paths
// (component.site.metric). Asking for an existing histogram returns
// the same handle.
type Registry struct {
	mu    sync.Mutex
	hists map[string]*Histogram
	stats []*sim.Stats
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{hists: make(map[string]*Histogram)}
}

// Histogram returns the stable histogram handle for name, creating it
// empty on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// AttachStats includes a sim.Stats counter sink in this registry's
// exports and snapshots. Many sinks may be attached (one per
// experiment cell); same-named counters sum across sinks. The sink's
// cells are read at export time, so attach-then-run works — but reads
// must happen after the owning SoC's run completes (the experiment
// runner's WaitGroup provides that ordering).
func (r *Registry) AttachStats(s *sim.Stats) {
	if s == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats = append(r.stats, s)
}

// counterTotals sums every attached stats sink by counter name.
// Callers hold r.mu.
func (r *Registry) counterTotals() map[string]int64 {
	out := make(map[string]int64)
	for _, s := range r.stats {
		for name, v := range s.Snapshot() {
			out[name] += v
		}
	}
	return out
}

// Snapshot returns all counter values (attached stats, summed by
// name). Histograms are read through their handles or the exporters.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counterTotals()
}

// sortedKeys returns map keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
