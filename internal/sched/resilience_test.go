package sched_test

// Resilience policy tests: fault retry with exponential backoff,
// per-tenant queue bounds with lowest-priority-first shedding, the
// per-tenant circuit breaker, mid-run deadline misses, and the
// differential determinism of all of it under an armed fault plan.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	snpu "repro"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/schedgen"
	"repro/internal/sim"
)

// hangStorm arms core 0 with hangs spaced `gap` cycles apart so every
// dispatch attempt on it wedges.
func hangStorm(sys *snpu.System, n int, gap sim.Cycle) {
	events := make([]fault.Event, 0, n)
	for i := 1; i <= n; i++ {
		events = append(events, fault.Event{At: sim.Cycle(i) * gap, Kind: fault.CoreHang, Sel: 0})
	}
	sys.InstallFaultPlan(fault.Plan{Events: events})
}

func submitSecure(t *testing.T, sc *sched.Scheduler, sys *snpu.System, id int, tenant, model string, extra func(*sched.Request)) {
	t.Helper()
	key := snpu.ChaosKey(int64(id) * 31)
	keyID := fmt.Sprintf("%s-key-%d", tenant, id)
	if err := sys.ProvisionKey(keyID, key); err != nil {
		t.Fatal(err)
	}
	sealed, err := snpu.SealModel(key, []byte("resilience model"))
	if err != nil {
		t.Fatal(err)
	}
	r := sched.Request{ID: id, Tenant: tenant, Model: model, Secure: true, KeyID: keyID, Sealed: sealed}
	if extra != nil {
		extra(&r)
	}
	if err := sc.Submit(r); err != nil {
		t.Fatal(err)
	}
}

// A single scheduled hang aborts the attempt fail-closed, but with a
// restart budget the request re-enters after its backoff, restarts
// from the checkpoint through a fresh FnSubmit, and completes — the
// recovery is visible only as Retries/Recovered accounting and a
// "retry" decision, never as an error detail.
func TestSchedulerRetriesFaultedSecureTask(t *testing.T) {
	sys, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.InstallFaultPlan(fault.Plan{Events: []fault.Event{
		{At: 1000, Kind: fault.CoreHang, Sel: 0},
	}})
	sc, err := sys.NewScheduler(sched.Config{Cores: []int{0}, MaxRestarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	submitSecure(t, sc, sys, 1, "a", "mobilenet", nil)
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := rep.ResultByID(1)
	if !r.Completed || r.Retries != 1 {
		t.Fatalf("want completed after 1 retry, got %+v\n%s", r, rep.DecisionLog())
	}
	if rep.Recovered != 1 || rep.Retries != 1 {
		t.Fatalf("report recovered=%d retries=%d, want 1/1", rep.Recovered, rep.Retries)
	}
	log := rep.DecisionLog()
	if !strings.Contains(log, "retry") {
		t.Fatalf("no retry decision logged:\n%s", log)
	}
	// The backoff is real simulated time: the retry decision names the
	// cycle the request may re-enter, and nothing dispatches it before.
	var retryAt, redispatch sim.Cycle
	for _, d := range rep.Decisions {
		if d.Event == "retry" && d.Req == 1 {
			fmt.Sscanf(d.Detail, "attempt=1 backoff-until=%d", &retryAt)
		}
		if d.Event == "dispatch" && d.Req == 1 && d.Cycle > 1000 {
			redispatch = d.Cycle
		}
	}
	if retryAt == 0 || redispatch < retryAt {
		t.Fatalf("backoff not respected: retryAt=%d redispatch=%d\n%s", retryAt, redispatch, log)
	}
}

// A hang storm exhausts the restart budget: the request consumes
// exactly MaxRestarts retries and is then abandoned with the opaque
// sentinel, marked Retryable (the failure class is environmental).
func TestSchedulerRetryBudgetExhausted(t *testing.T) {
	sys, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hangStorm(sys, 4000, 50_000)
	sc, err := sys.NewScheduler(sched.Config{Cores: []int{0}, MaxRestarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	submitSecure(t, sc, sys, 1, "a", "mobilenet", nil)
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := rep.ResultByID(1)
	if !r.Aborted || r.Retries != 2 || !r.Retryable {
		t.Fatalf("want aborted after 2 retries (retryable), got %+v\n%s", r, rep.DecisionLog())
	}
	if r.Err != sched.ErrTaskAborted.Error() {
		t.Fatalf("abort error not opaque: %q", r.Err)
	}
	if rep.Recovered != 0 {
		t.Fatalf("recovered=%d for an abandoned task", rep.Recovered)
	}
}

// With retries disabled (the default), a fault aborts terminally —
// exactly the pre-policy behavior — but the result still carries the
// Retryable class marker so the serve layer can hint a client retry.
func TestSchedulerFaultAbortRetryableWithoutBudget(t *testing.T) {
	sys, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hangStorm(sys, 4000, 50_000)
	sc, err := sys.NewScheduler(sched.Config{Cores: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	submitSecure(t, sc, sys, 1, "a", "mobilenet", nil)
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := rep.ResultByID(1)
	if !r.Aborted || r.Retries != 0 || !r.Retryable {
		t.Fatalf("want terminal retryable abort, got %+v", r)
	}
	if r.Err != sched.ErrTaskAborted.Error() {
		t.Fatalf("abort error not opaque: %q", r.Err)
	}
}

// An explicit zero restart budget with a configured backoff behaves
// exactly like the default: the backoff knob is inert, the first fault
// aborts terminally, and the opaque sentinel is all the client sees.
func TestSchedulerZeroRetryBudgetIgnoresBackoff(t *testing.T) {
	sys, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hangStorm(sys, 4000, 50_000)
	sc, err := sys.NewScheduler(sched.Config{Cores: []int{0}, MaxRestarts: 0})
	if err != nil {
		t.Fatal(err)
	}
	submitSecure(t, sc, sys, 1, "a", "mobilenet", nil)
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := rep.ResultByID(1)
	if !r.Aborted || r.Retries != 0 || !r.Retryable {
		t.Fatalf("want terminal retryable abort with 0 retries, got %+v", r)
	}
	if r.Err != sched.ErrTaskAborted.Error() {
		t.Fatalf("abort error not opaque: %q", r.Err)
	}
	if strings.Contains(rep.DecisionLog(), "retry") {
		t.Fatalf("zero budget logged a retry:\n%s", rep.DecisionLog())
	}
}

// All queued requests at the lowest priority: the shed victim is the
// latest arrival (not the highest id), end to end through Submit.
func TestSchedulerShedTieBreakLatestArrival(t *testing.T) {
	_, sc := bootSched(t, sched.Config{Cores: []int{0}, MaxQueuePerTenant: 2})
	// id 5 arrives first, id 3 later — both priority 0. The victim must
	// be id 3 (latest arrival), even though 5 is the higher id.
	if err := sc.Submit(sched.Request{ID: 5, Tenant: "a", Model: "mobilenet", Arrival: 0}); err != nil {
		t.Fatal(err)
	}
	if err := sc.Submit(sched.Request{ID: 3, Tenant: "a", Model: "mobilenet", Arrival: 100}); err != nil {
		t.Fatal(err)
	}
	if err := sc.Submit(sched.Request{ID: 9, Tenant: "a", Model: "mobilenet", Arrival: 200, Priority: 1}); err != nil {
		t.Fatalf("priority arrival refused: %v", err)
	}
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r := rep.ResultByID(3); !r.Shed {
		t.Fatalf("req 3 = %+v, want shed\n%s", r, rep.DecisionLog())
	}
	for _, id := range []int{5, 9} {
		if r := rep.ResultByID(id); !r.Completed {
			t.Fatalf("req %d = %+v, want completed\n%s", id, r, rep.DecisionLog())
		}
	}
	if !strings.Contains(rep.DecisionLog(), "shed") || !strings.Contains(rep.DecisionLog(), "for req 9") {
		t.Fatalf("shed decision missing or unattributed:\n%s", rep.DecisionLog())
	}
}

// The per-tenant queue bound sheds deterministically: an arrival into
// a full queue is refused unless it outranks the least-urgent queued
// request, which is then shed (lowest priority first, then latest
// arrival, then highest id).
func TestSchedulerShedsLowestPriorityFirst(t *testing.T) {
	_, sc := bootSched(t, sched.Config{Cores: []int{0}, MaxQueuePerTenant: 2})
	for id := 1; id <= 2; id++ {
		if err := sc.Submit(sched.Request{ID: id, Tenant: "a", Model: "mobilenet"}); err != nil {
			t.Fatal(err)
		}
	}
	// Equal priority into a full queue: refused, queue unchanged.
	err := sc.Submit(sched.Request{ID: 3, Tenant: "a", Model: "mobilenet"})
	if !errors.Is(err, sched.ErrQueueFull) {
		t.Fatalf("submit 3 = %v, want ErrQueueFull", err)
	}
	// Another tenant is not affected by a's bound.
	if err := sc.Submit(sched.Request{ID: 4, Tenant: "b", Model: "mobilenet"}); err != nil {
		t.Fatal(err)
	}
	// Strictly higher priority sheds the least-urgent victim (id 2:
	// same priority and arrival as id 1, higher id).
	if err := sc.Submit(sched.Request{ID: 5, Tenant: "a", Model: "mobilenet", Priority: 1}); err != nil {
		t.Fatalf("priority arrival refused: %v", err)
	}
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	shed := rep.ResultByID(2)
	if !shed.Shed || shed.Completed {
		t.Fatalf("req 2 = %+v, want shed\n%s", shed, rep.DecisionLog())
	}
	if rep.Shed != 1 || rep.Completed != 3 {
		t.Fatalf("shed=%d completed=%d, want 1/3", rep.Shed, rep.Completed)
	}
	if !strings.Contains(rep.DecisionLog(), "shed") {
		t.Fatalf("no shed decision:\n%s", rep.DecisionLog())
	}
}

// The circuit breaker quarantines a tenant whose tasks repeatedly
// abort, refuses its submissions for the cooldown, and releases it
// after the cooldown episodes elapse.
func TestSchedulerBreakerQuarantinesAbortingTenant(t *testing.T) {
	br := sched.NewBreaker(2, 1)

	// Episode 1: tenant a aborts twice in a row under a hang storm.
	sys, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hangStorm(sys, 4000, 50_000)
	sc, err := sys.NewScheduler(sched.Config{Cores: []int{0}, Breaker: br})
	if err != nil {
		t.Fatal(err)
	}
	submitSecure(t, sc, sys, 1, "a", "mobilenet", nil)
	submitSecure(t, sc, sys, 2, "a", "alexnet", nil)
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aborted != 2 {
		t.Fatalf("aborted=%d, want 2\n%s", rep.Aborted, rep.DecisionLog())
	}
	if !strings.Contains(rep.DecisionLog(), "quarantine") {
		t.Fatalf("breaker tripped silently:\n%s", rep.DecisionLog())
	}

	// Episode 2: tenant a is refused, tenant b is served.
	sys2, sc2 := bootSched(t, sched.Config{Cores: []int{0}, Breaker: br})
	_ = sys2
	err = sc2.Submit(sched.Request{ID: 10, Tenant: "a", Model: "mobilenet"})
	if !errors.Is(err, sched.ErrTenantQuarantined) {
		t.Fatalf("quarantined submit = %v, want ErrTenantQuarantined", err)
	}
	if err := sc2.Submit(sched.Request{ID: 11, Tenant: "b", Model: "mobilenet"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sc2.Run(); err != nil {
		t.Fatal(err)
	}

	// Episode 3: the 1-episode cooldown has elapsed; a is welcome back.
	_, sc3 := bootSched(t, sched.Config{Cores: []int{0}, Breaker: br})
	if err := sc3.Submit(sched.Request{ID: 20, Tenant: "a", Model: "mobilenet"}); err != nil {
		t.Fatalf("post-cooldown submit refused: %v", err)
	}
}

// A feasible deadline that the run nonetheless crosses is cut
// deterministically at a tile boundary: the member retires dropped
// with the deadline_miss decision, and a secure cut pays the §IV-B
// flush before the core is reused.
func TestSchedulerDeadlineMissMidRunPaysFlush(t *testing.T) {
	// Measure the solo secure latency first.
	sys, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sys.NewScheduler(sched.Config{Cores: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	submitSecure(t, sc, sys, 1, "a", "mobilenet", nil)
	ref, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	solo := ref.ResultByID(1)
	if !solo.Completed {
		t.Fatalf("solo run did not complete: %+v", solo)
	}

	// Replay with a deadline one cycle short of the known finish: the
	// compute floor fits (admission passes) but the run must cross it.
	sys2, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := sys2.NewScheduler(sched.Config{Cores: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	submitSecure(t, sc2, sys2, 1, "a", "mobilenet", func(r *sched.Request) {
		r.Deadline = solo.Finish - 1
	})
	rep, err := sc2.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := rep.ResultByID(1)
	if !r.Dropped || r.Err != "sched: deadline missed" {
		t.Fatalf("want mid-run deadline drop, got %+v\n%s", r, rep.DecisionLog())
	}
	if !strings.Contains(rep.DecisionLog(), "deadline_miss") {
		t.Fatalf("no deadline_miss decision:\n%s", rep.DecisionLog())
	}
	if rep.FlushCycles == 0 {
		t.Fatal("secure deadline cut paid no flush")
	}
}

// Differential determinism under the full policy stack: an armed fault
// plan, overload-level queue bounds, retries, and deadlines replayed
// on a fresh System must be byte-identical.
func runResilientTrace(t *testing.T, seed int64, sealed map[string][]byte) *sched.Report {
	t.Helper()
	sys, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.InstallFaultPlan(fault.Generate(seed, 200_000_000, fault.TransientRates(25)))
	const tenants = 3
	if err := schedgen.ProvisionKeys(sys, seed, tenants); err != nil {
		t.Fatal(err)
	}
	sc, err := sys.NewScheduler(sched.Config{
		Cores:             []int{0, 1, 2, 3},
		MaxRestarts:       2,
		MaxQueuePerTenant: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range snpu.ServeTrace(seed, 0.5, 24, tenants) {
		if r.Secure {
			r.Sealed = sealed[r.KeyID]
		}
		err := sc.Submit(r)
		if err != nil && !errors.Is(err, sched.ErrQueueFull) {
			t.Fatal(err)
		}
	}
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestDifferentialResilienceDeterminism(t *testing.T) {
	seeds := []int64{3, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			sealed := sealedSet(t, seed)
			ref := runResilientTrace(t, seed, sealed)
			again := runResilientTrace(t, seed, sealed)
			diffReports(t, "fresh system", ref, again)
		})
	}
}
