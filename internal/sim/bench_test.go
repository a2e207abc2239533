package sim

import "testing"

// BenchmarkStatsAdd measures the by-name counter path the per-call
// sites (monitor calls, faults, context switches) take.
func BenchmarkStatsAdd(b *testing.B) {
	b.ReportAllocs()
	s := NewStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(CtrNoCFlits, 1)
	}
}

// BenchmarkStatsCounterHandle measures the resolved-cell fast path the
// per-op sites take through AddCell instead of repeated map lookups.
func BenchmarkStatsCounterHandle(b *testing.B) {
	b.ReportAllocs()
	s := NewStats()
	c := s.Counter(CtrNoCFlits)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*c++
	}
}

// BenchmarkResourceClaim measures the serialized-resource grant path
// (one claim per DMA batch / NoC link per packet).
func BenchmarkResourceClaim(b *testing.B) {
	b.ReportAllocs()
	r := NewResource("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Claim(Cycle(i), 4)
	}
}
