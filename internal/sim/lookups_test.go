package sim_test

import (
	"testing"

	snpu "repro"
	"repro/internal/sim"
)

// The per-op, per-request and per-packet counter sites increment
// through cells, so a whole inference resolves each counter name by
// map at most once per component that counts it. A site that went
// back to Add or Inc by name would resolve once per op: a yololite
// run makes hundreds of thousands of increments.
func TestRunModelResolvesCountersOnce(t *testing.T) {
	sys, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	before := sim.Resolves(st)
	if _, err := sys.RunModel("yololite"); err != nil {
		t.Fatal(err)
	}
	got := sim.Resolves(st) - before
	names := len(st.Names())
	t.Logf("%d map resolutions for %d counter names", got, names)
	if got > int64(names) {
		t.Fatalf("yololite RunModel resolved counters by name %d times; at most %d (one per name) allowed", got, names)
	}
}
