package experiments

import (
	"runtime"
	"sync"

	"repro/internal/npu"
)

// Pooling: booting a SoC per experiment cell (regions, boot chain,
// NPU, scratchpads, mesh) was a large share of the suite's allocation
// churn, and the GC pressure it generated is what capped parallel
// speedup below 1x. Instead, a released instance is scrubbed back to
// its freshly booted state and reused by the next cell with the same
// key. One Pool type serves both the experiment cells here (SoCs keyed
// by npu.Config) and the root package's sweeps (Systems keyed by
// snpu.Config).
//
// The determinism contract: a cell run on a recycled instance produces
// byte-identical cycles, tables, and stats to the same cell on a fresh
// boot. That holds because the scrub power-cycles every piece of
// observable state — timing resources, pipelines, L2 contents,
// scratchpad payload/tags/valid/parity, mesh locks/inboxes/dead links,
// backing pages, ECC damage, core domains, installed translators, and
// counters — while keeping only capacity (allocated slices, maps,
// resolved counter handles) warm. TestPooledDifferential pins the
// contract; TestPoolNoSecretLeak pins the isolation half (no prior
// tenant's bytes survive a recycle).
//
// Reuse is off while a -metrics-dir collection window is open: that
// mode aggregates one registered sink per *booted* instance, so reuse
// would fold several cells into one sink, and a scrub would zero a
// sink before it is exported. An instance released while reuse is off
// is therefore dropped unscrubbed; nothing reuses it. Cycle counts are
// pooling-independent either way, so the switch cannot change results.

var pooling struct {
	sync.Mutex
	off bool
	// epoch counts SetPooling(false) calls; a pool filled in an older
	// epoch drops its instances on next use.
	epoch uint64
}

// SetPooling toggles reuse in every Pool (on by default). Turning it
// off also makes every pool drop its instances, so differentials can
// force the fresh-boot path.
func SetPooling(on bool) {
	pooling.Lock()
	defer pooling.Unlock()
	pooling.off = !on
	if !on {
		pooling.epoch++
	}
}

// poolState reports the current drop epoch and whether reuse is
// allowed: pooling on, and no metrics-collection window open.
func poolState() (epoch uint64, active bool) {
	if collecting() {
		return 0, false
	}
	pooling.Lock()
	defer pooling.Unlock()
	return pooling.epoch, !pooling.off
}

// Pool is a keyed free list of booted instances. The zero value is
// ready to use. Each key holds at most 2 × GOMAXPROCS instances: a
// parallel runner needs at most one in flight per worker, so beyond
// that extra instances are just held memory.
type Pool[K comparable, T any] struct {
	mu           sync.Mutex
	free         map[K][]T
	epoch        uint64
	hits, misses uint64
}

// bucket returns k's free list, first dropping every instance pooled
// before the last SetPooling(false). The caller holds p.mu.
func (p *Pool[K, T]) bucket(epoch uint64, k K) []T {
	if p.free == nil || p.epoch != epoch {
		p.free = make(map[K][]T)
		p.epoch = epoch
	}
	return p.free[k]
}

// Get returns a pooled instance for k when one is free, and boot()
// otherwise.
func (p *Pool[K, T]) Get(k K, boot func() (T, error)) (T, error) {
	if epoch, active := poolState(); active {
		p.mu.Lock()
		if b := p.bucket(epoch, k); len(b) > 0 {
			t := b[len(b)-1]
			p.free[k] = b[:len(b)-1]
			p.hits++
			p.mu.Unlock()
			return t, nil
		}
		p.misses++
		p.mu.Unlock()
	}
	return boot()
}

// Put hands t back under k. While reuse is active, scrub resets t to
// its freshly booted state first — at hand-back, so no tenant's data
// sits in the pool — and t is pooled unless the scrub fails or the
// bucket is full. While reuse is off, t is dropped without a scrub.
func (p *Pool[K, T]) Put(k K, t T, scrub func() error) {
	epoch, active := poolState()
	if !active || scrub() != nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if b := p.bucket(epoch, k); len(b) < 2*runtime.GOMAXPROCS(0) {
		p.free[k] = append(b, t)
	}
}

// Counters reports lifetime hits (recycled instances handed out) and
// misses (fresh boots while reuse was active).
func (p *Pool[K, T]) Counters() (hits, misses uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses
}

// socs pools the experiment cells' SoCs.
var socs Pool[npu.Config, *SoC]

// PoolCounters reports the SoC pool's lifetime hits and misses.
func PoolCounters() (hits, misses uint64) { return socs.Counters() }

// AcquireSoC returns a ready SoC for cfg — recycled when one is
// pooled, freshly booted otherwise. Callers must hand it back with
// Release when the cell completes. Only identity-translator systems
// (the NewSoC(cfg, nil) shape every cell uses) are pooled.
func AcquireSoC(cfg npu.Config) (*SoC, error) {
	return socs.Get(cfg, func() (*SoC, error) { return NewSoC(cfg, nil) })
}

// Release hands the SoC back to the pool.
func (soc *SoC) Release() {
	socs.Put(soc.NPU.Config(), soc, func() error {
		soc.Reset()
		return nil
	})
}
