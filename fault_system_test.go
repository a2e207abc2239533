package snpu

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// Golden cycle counts for the seed workloads. These pin down the
// zero-fault determinism invariant across sessions: arming the fault
// subsystem with an empty plan must not move a single cycle.
const (
	goldenYololiteCycles sim.Cycle = 4011901
	goldenYololiteMACs             = 283356416
)

func TestZeroFaultDeterminism(t *testing.T) {
	plain, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := plain.RunModel("yololite")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != goldenYololiteCycles || res.MACs != goldenYololiteMACs {
		t.Fatalf("golden drift: cycles=%d macs=%d, want %d/%d",
			res.Cycles, res.MACs, goldenYololiteCycles, goldenYololiteMACs)
	}

	armed, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	armed.InstallFaultPlan(fault.Plan{})
	res2, err := armed.RunModel("yololite")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cycles != res.Cycles || res2.MACs != res.MACs {
		t.Fatalf("empty plan changed the run: %d/%d vs %d/%d",
			res2.Cycles, res2.MACs, res.Cycles, res.MACs)
	}
	if got := armed.Stats().Get(sim.CtrFaultsInjected); got != 0 {
		t.Fatalf("empty plan injected %d faults", got)
	}
	if dp, da := plain.Stats().Get(sim.CtrDMARequests), armed.Stats().Get(sim.CtrDMARequests); dp != da {
		t.Fatalf("empty plan changed DMA request count: %d vs %d", dp, da)
	}
}

func TestZeroFaultDeterminismSecure(t *testing.T) {
	run := func(install bool) sim.Cycle {
		sys, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		key := ChaosKey(1)
		if err := sys.ProvisionKey("owner", key); err != nil {
			t.Fatal(err)
		}
		sealed, err := SealModel(key, []byte("weights"))
		if err != nil {
			t.Fatal(err)
		}
		h, err := sys.SubmitSecure("yololite", "owner", sealed)
		if err != nil {
			t.Fatal(err)
		}
		if install {
			sys.InstallFaultPlan(fault.Plan{})
		}
		res, err := sys.RunSecure(h)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	plain, armed := run(false), run(true)
	if plain != goldenYololiteCycles {
		t.Fatalf("secure golden drift: %d, want %d", plain, goldenYololiteCycles)
	}
	if plain != armed {
		t.Fatalf("empty plan changed the secure run: %d vs %d", plain, armed)
	}
}

func resilientRun(t *testing.T, plan fault.Plan) (SecureRunReport, error) {
	t.Helper()
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	key := ChaosKey(3)
	if err := sys.ProvisionKey("owner", key); err != nil {
		t.Fatal(err)
	}
	sealed, err := SealModel(key, []byte("weights"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.SubmitSecure("yololite", "owner", sealed)
	if err != nil {
		t.Fatal(err)
	}
	sys.InstallFaultPlan(plan)
	return sys.RunSecureResilient(h, DefaultMaxRestarts)
}

// The resilient runner replays byte-identically and reports no
// recovery work with nothing scheduled.
func TestResilientRunDeterministicWithEmptyPlan(t *testing.T) {
	a, errA := resilientRun(t, fault.Plan{})
	b, errB := resilientRun(t, fault.Plan{})
	if errA != nil || errB != nil {
		t.Fatalf("errs: %v / %v", errA, errB)
	}
	if a.Cycles != b.Cycles || a.Faults != 0 || a.Restarts != 0 || a.Remaps != 0 {
		t.Fatalf("reports differ or show phantom recovery: %+v vs %+v", a, b)
	}
}

// A survivable plan recovers: faults fire, the result still lands.
func TestResilientRunRecoversFromFaults(t *testing.T) {
	plan := fault.Plan{Events: []fault.Event{
		{At: 1000, Kind: fault.DMAStall},
		{At: 200_000, Kind: fault.DRAMBitFlip, Sel: 5, Bit: 30},
		{At: 900_000, Kind: fault.CoreHang},
	}}
	rep, err := resilientRun(t, plan)
	if err != nil {
		t.Fatalf("survivable plan aborted: %v", err)
	}
	if rep.Faults == 0 {
		t.Fatal("no fault fired")
	}
	if rep.Cycles <= goldenYololiteCycles {
		t.Fatalf("recovery was free: %d cycles", rep.Cycles)
	}
	// Same plan, same report — the recovery path itself is deterministic.
	rep2, err := resilientRun(t, plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep2 != rep {
		t.Fatalf("recovery not deterministic: %+v vs %+v", rep2, rep)
	}
}

// A hang storm exhausts the crash-loop budget; the driver sees only
// the opaque abort error.
func TestResilientRunAbandonsUnderHangStorm(t *testing.T) {
	var events []fault.Event
	for i := 0; i < 40; i++ {
		events = append(events, fault.Event{At: 0, Kind: fault.CoreHang})
	}
	rep, err := resilientRun(t, fault.Plan{Events: events})
	if !errors.Is(err, ErrTaskAborted) {
		t.Fatalf("err = %v, want ErrTaskAborted", err)
	}
	if !rep.Aborted {
		t.Fatal("report not marked aborted")
	}
	if err.Error() != "snpu: secure task aborted" {
		t.Fatalf("abort error leaks detail: %q", err.Error())
	}
}

// bootResilient boots a protected system with one sealed yololite
// handle, leaving plan installation to the caller.
func bootResilientSys(t *testing.T) (*System, *SecureTaskHandle) {
	t.Helper()
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	key := ChaosKey(3)
	if err := sys.ProvisionKey("owner", key); err != nil {
		t.Fatal(err)
	}
	sealed, err := SealModel(key, []byte("weights"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.SubmitSecure("yololite", "owner", sealed)
	if err != nil {
		t.Fatal(err)
	}
	return sys, h
}

// The crash-loop budget is exact: with every attempt wedged before any
// checkpoint progress, a budget of N abandons after exactly N restarts
// — not N-1, not N+1 — and the unrecovered-fault counter ticks once.
func TestResilientRunAbortsExactlyAtBudget(t *testing.T) {
	for _, budget := range []int{1, 2, 3} {
		sys, h := bootResilientSys(t)
		var events []fault.Event
		for i := 0; i < 4*(budget+1); i++ {
			events = append(events, fault.Event{At: 0, Kind: fault.CoreHang})
		}
		sys.InstallFaultPlan(fault.Plan{Events: events})
		rep, err := sys.RunSecureResilient(h, budget)
		if !errors.Is(err, ErrTaskAborted) {
			t.Fatalf("budget %d: err = %v, want ErrTaskAborted", budget, err)
		}
		if rep.Restarts != budget {
			t.Fatalf("budget %d: restarts = %d, want exactly the budget", budget, rep.Restarts)
		}
		if got := sys.Stats().Get(sim.CtrTaskRestarts); got != int64(budget) {
			t.Fatalf("budget %d: restart counter = %d", budget, got)
		}
		if got := sys.Stats().Get(sim.CtrUnrecoveredFaults); got != 1 {
			t.Fatalf("budget %d: unrecovered counter = %d, want 1", budget, got)
		}
	}
}

// A fault on the very first tile — before the first layer boundary,
// so no checkpoint exists — restarts from scratch and still completes
// once the fault clears, with the restart visible in the report and
// the recovered-fault counter.
func TestResilientRunFaultBeforeFirstCheckpoint(t *testing.T) {
	sys, h := bootResilientSys(t)
	sys.InstallFaultPlan(fault.Plan{Events: []fault.Event{
		{At: 0, Kind: fault.CoreHang},
	}})
	rep, err := sys.RunSecureResilient(h, DefaultMaxRestarts)
	if err != nil {
		t.Fatalf("pre-checkpoint fault not survivable: %v", err)
	}
	if rep.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", rep.Restarts)
	}
	if rep.Cycles <= goldenYololiteCycles {
		t.Fatalf("restart-from-scratch was free: %d cycles", rep.Cycles)
	}
	if got := sys.Stats().Get(sim.CtrTaskRestarts); got != 1 {
		t.Fatalf("restart counter = %d, want 1", got)
	}
	if got := sys.Stats().Get(sim.CtrRecoveredFaults); got != 1 {
		t.Fatalf("recovered counter = %d, want 1", got)
	}
}

func TestChaosDeterministicPerSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is a multi-inference run")
	}
	a, err := Chaos("yololite", 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Chaos("yololite", 11)
	if err != nil {
		t.Fatal(err)
	}
	if a.TableString() != b.TableString() {
		t.Fatalf("same seed, different tables:\n%s\nvs\n%s", a.TableString(), b.TableString())
	}
}
