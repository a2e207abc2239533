package sim

// Resolves reports how many times s resolved a counter name through
// its map.
func Resolves(s *Stats) int64 { return s.resolves }
