package sim

import "testing"

// BenchmarkEngineScheduleDrain measures the event-queue hot path: the
// cost of scheduling and firing events, including per-event allocation.
func BenchmarkEngineScheduleDrain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1024; j++ {
			e.Schedule(Cycle(j%64), func() {})
		}
		e.Run()
	}
}

// BenchmarkEngineInterleaved measures the steady-state pattern the
// executors produce: each fired event schedules a successor.
func BenchmarkEngineInterleaved(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		n := 0
		var step func()
		step = func() {
			if n < 4096 {
				n++
				e.After(3, step)
			}
		}
		e.After(0, step)
		e.Run()
	}
}

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
