package sched

// Edge-case tables for the resilience policy knobs in policy.go: the
// backoff ladder's clamps, the breaker's trip/cooldown state machine
// exactly at its episode boundaries, and the shed victim ordering when
// every queued request shares the lowest priority. These run inside
// the package so the episode boundary (observe/endEpisode) can be
// driven directly, without a scheduler run per table row.

import (
	"testing"

	"repro/internal/sim"
)

func TestRetryBackoffTable(t *testing.T) {
	const base = DefaultRetryBackoff
	cases := []struct {
		name    string
		attempt int
		want    sim.Cycle
	}{
		{"first attempt", 1, base},
		{"second doubles", 2, 2 * base},
		{"third quadruples", 3, 4 * base},
		{"attempt zero clamps to first", 0, base},
		{"negative attempt clamps to first", -5, base},
		{"shift caps at 20", 21, base << 20},
		{"hostile attempt stays capped", 1 << 30, base << 20},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := RetryBackoff(c.attempt); got != c.want {
				t.Fatalf("RetryBackoff(%d) = %d, want %d", c.attempt, got, c.want)
			}
		})
	}
}

// The quarantine must last exactly Cooldown full episodes: tripping
// mid-episode does not consume the trip episode, and the tenant is
// welcome back at the first episode after the cooldown — not one
// earlier, not one later.
func TestBreakerReopensExactlyAtCooldownBoundary(t *testing.T) {
	cases := []struct {
		name                string
		threshold, cooldown int
		tripAborts          int // consecutive aborts that trip it
		fullEpisodesOut     int // episodes the tenant must sit out
	}{
		{"defaults", 0, 0, DefaultBreakerThreshold, DefaultBreakerCooldown},
		{"threshold 1 cooldown 1", 1, 1, 1, 1},
		{"threshold 2 cooldown 3", 2, 3, 2, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewBreaker(c.threshold, c.cooldown)
			for i := 0; i < c.tripAborts-1; i++ {
				if b.observe("a", true, false) {
					t.Fatalf("tripped after %d aborts, threshold %d", i+1, b.threshold())
				}
				if !b.Allow("a") {
					t.Fatalf("quarantined below threshold")
				}
			}
			if !b.observe("a", true, false) {
				t.Fatalf("abort %d did not trip at threshold %d", c.tripAborts, b.threshold())
			}
			if b.Allow("a") {
				t.Fatal("tripped tenant still allowed in the trip episode")
			}
			if got := b.Quarantined(); len(got) != 1 || got[0] != "a" {
				t.Fatalf("Quarantined() = %v, want [a]", got)
			}
			// End of the trip episode: the cooldown has not started
			// counting yet, then it counts down one whole episode at a
			// time. The tenant must be refused through the end of the
			// last cooldown episode and admitted immediately after it.
			b.endEpisode()
			for ep := 1; ep <= c.fullEpisodesOut; ep++ {
				if b.Allow("a") {
					t.Fatalf("allowed during cooldown episode %d of %d", ep, c.fullEpisodesOut)
				}
				b.endEpisode()
			}
			if !b.Allow("a") {
				t.Fatalf("still quarantined after %d full cooldown episodes", c.fullEpisodesOut)
			}
			if got := b.Quarantined(); len(got) != 0 {
				t.Fatalf("Quarantined() = %v after reopen, want empty", got)
			}
		})
	}
}

// A completion anywhere in the streak resets the consecutive-abort
// count; other tenants' outcomes never bleed into the streak.
func TestBreakerStreakResetAndTenantIsolation(t *testing.T) {
	b := NewBreaker(3, 1)
	b.observe("a", true, false)
	b.observe("a", true, false)
	b.observe("a", false, true) // completion resets
	b.observe("a", true, false)
	b.observe("a", true, false)
	if !b.Allow("a") {
		t.Fatal("tripped despite a streak-resetting completion")
	}
	// Tenant b's aborts must not count against a.
	b.observe("b", true, false)
	if !b.Allow("a") || !b.Allow("b") {
		t.Fatal("cross-tenant streak bleed")
	}
	if !b.observe("a", true, false) {
		t.Fatal("third consecutive abort did not trip")
	}
	if b.Allow("a") || !b.Allow("b") {
		t.Fatal("quarantine hit the wrong tenant")
	}
}

// A nil breaker is a no-op policy: everything allowed, nothing listed.
func TestBreakerNilIsOpen(t *testing.T) {
	var b *Breaker
	if !b.Allow("anyone") {
		t.Fatal("nil breaker refused a tenant")
	}
	if b.observe("anyone", true, false) {
		t.Fatal("nil breaker tripped")
	}
	b.endEpisode() // must not panic
	if got := b.Quarantined(); got != nil {
		t.Fatalf("nil breaker quarantined %v", got)
	}
}

// When every queued request shares the lowest priority the shed victim
// is still fully determined: latest arrival first, then highest id —
// the exact reverse of dispatch order.
func TestShedVictimTieBreakAllLowestPriority(t *testing.T) {
	mk := func(id int, arrival sim.Cycle) *reqState {
		return &reqState{req: Request{ID: id, Tenant: "a", Arrival: arrival}, core: -1}
	}
	cases := []struct {
		name   string
		queued []*reqState
		want   int
	}{
		{"latest arrival loses", []*reqState{mk(5, 0), mk(3, 100)}, 3},
		{"equal arrival: highest id loses", []*reqState{mk(2, 50), mk(7, 50), mk(4, 50)}, 7},
		{"arrival outranks id", []*reqState{mk(9, 10), mk(1, 20)}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := &Scheduler{all: c.queued}
			// Terminal requests are never victims.
			s.all = append(s.all, &reqState{req: Request{ID: 99, Tenant: "a", Arrival: 1 << 40}, terminal: true})
			// Other tenants are never victims.
			s.all = append(s.all, &reqState{req: Request{ID: 98, Tenant: "b", Arrival: 1 << 40}})
			v := s.shedVictim("a")
			if v == nil || v.req.ID != c.want {
				t.Fatalf("shedVictim = %+v, want id %d", v, c.want)
			}
		})
	}
}
