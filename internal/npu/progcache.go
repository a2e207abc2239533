package npu

import (
	"crypto/sha256"
	"sync"

	"repro/internal/workload"
)

// Compiled programs are immutable after Compile returns (execution,
// measurement, and validation only read them), so identical compile
// requests can share one *Program. The experiment suite compiles the
// same handful of models hundreds of times — once per cell, sometimes
// twice per cell — and each alexnet-class op stream is tens of MB, so
// sharing turns the dominant allocation source of the suite into a
// near-free map lookup.
//
// The cache key covers everything Compile's output depends on: the
// workload's digest (workload.Digest, the SHA-256 of its canonical
// bytes: name, layers and every GEMM's name, dimensions and exact
// efficiency — the same value Compile stamps as SourceDigest), the
// comparable Config value, the scratchpad budget, and the Layout.

type progKey struct {
	digest [sha256.Size]byte
	cfg    Config
	budget int
	layout Layout
}

// progEntry is one cached compile. done closes once prog, stats and
// err are set; until then the entry is in flight, and callers that
// find it wait on done instead of compiling the key again.
type progEntry struct {
	done  chan struct{}
	prog  *Program
	stats CompileStats
	err   error
}

// progCacheMax bounds the cache. The suite uses ~10 distinct
// (model, cfg, layout) combinations, and the scheduler compiles every
// request at the default layout; but driver.Submit gives each
// co-resident task its own layout, keyed by a task ID that grows
// without bound, and every distinct custom graph is a key of its own.
// So on overflow the whole map is dropped — deterministic, and
// correctness never depends on residency.
const progCacheMax = 128

var progCache = struct {
	sync.Mutex
	m      map[progKey]*progEntry
	hits   uint64
	misses uint64
}{m: make(map[progKey]*progEntry)}

// CompileCached is Compile behind a process-wide cache of immutable
// programs. Callers MUST treat the returned Program as read-only — it
// may be shared with concurrent experiment cells. Code that intends to
// mutate the op stream (slicing per-core partitions) must keep calling
// Compile.
//
// Concurrent misses on one key coalesce: the first caller publishes an
// in-flight entry and compiles outside the lock (cells missing on
// different keys never serialize behind one big compile); later callers
// count a hit and wait for it. A failed compile is not cached — its
// waiters get the same error, and the next caller compiles afresh.
func CompileCached(w workload.Workload, cfg Config, spadBudget int, layout Layout) (*Program, CompileStats, error) {
	digest := workload.Digest(w)
	key := progKey{digest: digest, cfg: cfg, budget: spadBudget, layout: layout}

	progCache.Lock()
	if e, ok := progCache.m[key]; ok {
		progCache.hits++
		progCache.Unlock()
		<-e.done
		return e.prog, e.stats, e.err
	}
	progCache.misses++
	if len(progCache.m) >= progCacheMax {
		progCache.m = make(map[progKey]*progEntry)
	}
	e := &progEntry{done: make(chan struct{})}
	progCache.m[key] = e
	progCache.Unlock()

	e.prog, e.stats, e.err = compile(w, cfg, spadBudget, layout, digest)
	if e.err != nil {
		progCache.Lock()
		if progCache.m[key] == e {
			delete(progCache.m, key)
		}
		progCache.Unlock()
	}
	close(e.done)
	return e.prog, e.stats, e.err
}

// ProgCacheCounters reports lifetime cache hits and misses.
func ProgCacheCounters() (hits, misses uint64) {
	progCache.Lock()
	defer progCache.Unlock()
	return progCache.hits, progCache.misses
}

// ResetProgCache drops every cached program (tests, memory pressure).
func ResetProgCache() {
	progCache.Lock()
	defer progCache.Unlock()
	progCache.m = make(map[progKey]*progEntry)
	progCache.hits = 0
	progCache.misses = 0
}
