package sched

// Resilience policy knobs: retry backoff, per-tenant queue bounds, and
// the per-tenant circuit breaker. Everything here is untrusted serving
// policy layered *outside* the monitor's TCB — a wrong decision wastes
// cycles or sheds load, but every isolation-relevant consequence still
// goes through the monitor trampoline (DESIGN.md §11). Nothing reads a
// wall clock: the breaker counts scheduler episodes, the backoff is in
// simulated cycles, so every decision replays byte-identically.

import (
	"errors"

	"repro/internal/sim"
)

// Backpressure errors the scheduler surfaces at Submit; the serve API
// maps them to 429 and 503 with a Retry-After hint.
var (
	ErrQueueFull         = errors.New("sched: tenant queue full")
	ErrTenantQuarantined = errors.New("sched: tenant quarantined")
)

// DefaultRetryBackoff is the base retry delay in simulated cycles,
// used when Config.MaxRestarts enables fault retries.
const DefaultRetryBackoff sim.Cycle = 100_000

// RetryBackoff is the scheduler's exponential retry ladder: attempt 1
// waits DefaultRetryBackoff, attempt 2 twice that, ... The shift is
// capped so a hostile restart budget cannot overflow the cycle counter.
func RetryBackoff(attempt int) sim.Cycle {
	if attempt < 1 {
		attempt = 1
	}
	shift := attempt - 1
	if shift > 20 {
		shift = 20
	}
	return DefaultRetryBackoff << shift
}

// Breaker defaults.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 2
)

// Breaker is a per-tenant circuit breaker over scheduler episodes: a
// tenant whose secure tasks abort Threshold times in a row (without an
// intervening completion) is quarantined — its submissions are refused
// with ErrTenantQuarantined for Cooldown whole episodes. The breaker
// outlives individual Scheduler instances (the serve daemon keeps one
// across episodes) and is deterministic: state advances only on
// result outcomes and episode boundaries, never on wall time.
type Breaker struct {
	// Threshold is the consecutive-abort trip count (<=0 selects
	// DefaultBreakerThreshold).
	Threshold int
	// Cooldown is how many episodes a tripped tenant sits out (<=0
	// selects DefaultBreakerCooldown).
	Cooldown int

	consecutive map[string]int
	quarantine  map[string]int  // remaining cooldown episodes
	tripped     map[string]bool // tripped this episode: cooldown starts next
}

// NewBreaker builds a breaker; zero values select the defaults.
func NewBreaker(threshold, cooldown int) *Breaker {
	return &Breaker{Threshold: threshold, Cooldown: cooldown}
}

func (b *Breaker) threshold() int {
	if b.Threshold <= 0 {
		return DefaultBreakerThreshold
	}
	return b.Threshold
}

func (b *Breaker) cooldown() int {
	if b.Cooldown <= 0 {
		return DefaultBreakerCooldown
	}
	return b.Cooldown
}

// Allow reports whether the tenant may submit (false while
// quarantined). A nil breaker allows everything.
func (b *Breaker) Allow(tenant string) bool {
	if b == nil {
		return true
	}
	return b.quarantine[tenant] == 0
}

// Quarantined lists tenants currently sitting out, sorted-free (callers
// needing order must sort); exposed for status surfaces.
func (b *Breaker) Quarantined() []string {
	if b == nil {
		return nil
	}
	out := make([]string, 0, len(b.quarantine))
	for t, n := range b.quarantine {
		if n > 0 {
			out = append(out, t)
		}
	}
	return out
}

// observe feeds one terminal outcome. Aborts count against the tenant;
// completions reset the streak. Returns true when this observation
// trips the breaker (the caller logs the quarantine decision).
func (b *Breaker) observe(tenant string, aborted, completed bool) bool {
	if b == nil {
		return false
	}
	switch {
	case aborted:
		if b.consecutive == nil {
			b.consecutive = make(map[string]int)
		}
		b.consecutive[tenant]++
		if b.consecutive[tenant] == b.threshold() {
			if b.quarantine == nil {
				b.quarantine = make(map[string]int)
				b.tripped = make(map[string]bool)
			}
			b.quarantine[tenant] = b.cooldown()
			b.tripped[tenant] = true
			b.consecutive[tenant] = 0
			return true
		}
	case completed:
		delete(b.consecutive, tenant)
	}
	return false
}

// endEpisode advances quarantine cooldowns by one episode. A tenant
// tripped during this episode starts its cooldown at the next one —
// the quarantine must sit out at least Cooldown full episodes.
func (b *Breaker) endEpisode() {
	if b == nil {
		return
	}
	for t, n := range b.quarantine {
		if b.tripped[t] {
			continue
		}
		if n <= 1 {
			delete(b.quarantine, t)
		} else {
			b.quarantine[t] = n - 1
		}
	}
	for t := range b.tripped {
		delete(b.tripped, t)
	}
}
