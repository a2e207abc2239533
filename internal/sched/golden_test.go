package sched_test

// Golden pin for the decision log: the campaign's coverage feedback is
// a hash of this log, so the log itself must never go silently
// nondeterministic (or silently change shape). One fixed schedule —
// secure and plain requests, priorities, a deadline, a queue-bound
// shed, and a scheduled hang that exercises the retry path —
// byte-compared against a committed golden file. Regenerate with:
//
//	go test ./internal/sched -run TestGoldenDecisionLog -update-golden
//
// and review the diff like any other contract change.

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	snpu "repro"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/schedgen"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

const goldenSeed = 7001

func runGoldenSchedule(t *testing.T, sealed map[string][]byte) *sched.Report {
	t.Helper()
	sys, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// One early hang on core 0 forces a fail-closed abort and a retry,
	// so the golden covers the resilience decisions too.
	sys.InstallFaultPlan(fault.Plan{Events: []fault.Event{
		{At: 2000, Kind: fault.CoreHang, Sel: 0},
	}})
	if err := schedgen.ProvisionKeys(sys, goldenSeed, 2); err != nil {
		t.Fatal(err)
	}
	sc, err := sys.NewScheduler(sched.Config{
		Cores:             []int{0, 1},
		MaxBatch:          2,
		MaxRestarts:       1,
		MaxQueuePerTenant: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []sched.Request{
		{ID: 1, Tenant: "t0", Model: "mobilenet", Secure: true, KeyID: schedgen.TenantKeyID(0), Sealed: sealed[schedgen.TenantKeyID(0)]},
		{ID: 2, Tenant: "t1", Model: "yololite", Arrival: 1_000},
		{ID: 3, Tenant: "t0", Model: "yololite", Arrival: 5_000, Priority: 1},
		{ID: 4, Tenant: "t1", Model: "mobilenet", Secure: true, KeyID: schedgen.TenantKeyID(1), Sealed: sealed[schedgen.TenantKeyID(1)], Arrival: 10_000, Deadline: 60_000_000},
		{ID: 5, Tenant: "t0", Model: "mobilenet", Arrival: 20_000},
		// Tenant t0's queue is at its bound of 2 by now; this higher
		// priority arrival sheds the least-urgent queued request.
		{ID: 6, Tenant: "t0", Model: "yololite", Arrival: 30_000, Priority: 2},
		{ID: 7, Tenant: "t1", Model: "mobilenet", Arrival: 2_000_000},
	}
	for _, r := range reqs {
		if err := sc.Submit(r); err != nil && !errors.Is(err, sched.ErrQueueFull) {
			t.Fatal(err)
		}
	}
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestGoldenDecisionLog(t *testing.T) {
	sealed, err := schedgen.SealedSet(goldenSeed, 2, []byte("golden model"))
	if err != nil {
		t.Fatal(err)
	}
	rep := runGoldenSchedule(t, sealed)

	path := filepath.Join("testdata", "golden_decisions.log")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(rep.DecisionLog()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.DecisionLog(); got != string(want) {
		t.Fatalf("decision log diverged from the committed golden "+
			"(intentional? rerun with -update-golden and review)\n--- got ---\n%s\n--- want ---\n%s",
			got, want)
	}
}

// runGoldenDecodeSchedule is the decode counterpart: continuous
// batching (a mid-run join), a cross-tenant second batch, a priority
// preemptor over a resident KV window, and an early hang that forces a
// decode retry with a fresh KV claim. Pinned the same way:
//
//	go test ./internal/sched -run TestGoldenDecodeDecisionLog -update-golden
func runGoldenDecodeSchedule(t *testing.T, sealed map[string][]byte) *sched.Report {
	t.Helper()
	sys, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.InstallFaultPlan(fault.Plan{Events: []fault.Event{
		{At: 2000, Kind: fault.CoreHang, Sel: 0},
	}})
	if err := schedgen.ProvisionKeys(sys, goldenSeed, 2); err != nil {
		t.Fatal(err)
	}
	sc, err := sys.NewScheduler(sched.Config{
		Cores:       []int{0, 1},
		MaxBatch:    2,
		MaxRestarts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	specA := workload.DecodeSpec{Layers: 1, Hidden: 64, Heads: 4, FFN: 128, Prompt: 8, Steps: 3}
	specB := workload.DecodeSpec{Layers: 1, Hidden: 64, Heads: 4, FFN: 128, Prompt: 12, Steps: 4}
	reqs := []sched.Request{
		{ID: 1, Tenant: "t0", Secure: true, Decode: &specA},
		{ID: 2, Tenant: "t1", Secure: true, Decode: &specB, Arrival: 30_000},
		// Joins req 1's batch at a token boundary mid-run.
		{ID: 3, Tenant: "t0", Secure: true, Decode: &specA, Arrival: 60_000},
		// Preempts a decode batch; its KV window must stay resident.
		{ID: 4, Tenant: "t0", Model: "mobilenet", Secure: true, Priority: 5,
			KeyID: schedgen.TenantKeyID(0), Sealed: sealed[schedgen.TenantKeyID(0)], Arrival: 90_000},
		{ID: 5, Tenant: "t1", Secure: true, Decode: &specB, Arrival: 200_000},
	}
	for _, r := range reqs {
		if err := sc.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestGoldenDecodeDecisionLog(t *testing.T) {
	sealed, err := schedgen.SealedSet(goldenSeed, 2, []byte("golden model"))
	if err != nil {
		t.Fatal(err)
	}
	rep := runGoldenDecodeSchedule(t, sealed)
	// The golden must actually cover the decode vocabulary.
	for _, want := range []string{"kv_alloc", "join", "token", "leave", "kv_scrub"} {
		if !strings.Contains(rep.DecisionLog(), want) {
			t.Fatalf("golden decode schedule never emitted %q:\n%s", want, rep.DecisionLog())
		}
	}

	path := filepath.Join("testdata", "golden_decode_decisions.log")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(rep.DecisionLog()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.DecisionLog(); got != string(want) {
		t.Fatalf("decode decision log diverged from the committed golden "+
			"(intentional? rerun with -update-golden and review)\n--- got ---\n%s\n--- want ---\n%s",
			got, want)
	}
}
