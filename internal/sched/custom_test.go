package sched_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/workload"
)

// customWorkload lowers a small hand-written IR graph — the scheduler
// must treat the result exactly like a registry model.
func customWorkload(t *testing.T) workload.Workload {
	t.Helper()
	w, err := graph.LowerBytes([]byte(`{
		"ir": 1, "name": "custom-cnn",
		"inputs": [{"name": "image", "shape": [1, 3, 32, 32]}],
		"nodes": [
			{"name": "conv1", "op": "Conv", "inputs": ["image"],
			 "attrs": {"filters": 16, "kernel": 3, "stride": 1, "pad": 1}},
			{"name": "pool1", "op": "Pool", "inputs": ["conv1"], "attrs": {"kernel": 2}},
			{"name": "fc", "op": "FC", "inputs": ["pool1"], "attrs": {"out": 10}}
		],
		"outputs": ["fc"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// A graph-derived workload runs through the scheduler, secure and
// non-secure, alongside registry models.
func TestSchedulerRunsCustomWorkload(t *testing.T) {
	sys, sc := bootSched(t, sched.Config{Cores: []int{0, 1}})
	sealed := sealFor(t, sys, "tenant-c-key", 3)
	custom := customWorkload(t)
	reqs := []sched.Request{
		{ID: 1, Tenant: "c", Workload: &custom, Secure: true, Arrival: 0,
			KeyID: "tenant-c-key", Sealed: sealed},
		{ID: 2, Tenant: "c", Workload: &custom, Arrival: 0},
		{ID: 3, Tenant: "d", Model: "yololite", Arrival: 500},
	}
	for _, r := range reqs {
		if err := sc.Submit(r); err != nil {
			t.Fatalf("submit %d: %v", r.ID, err)
		}
	}
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(reqs) {
		t.Fatalf("completed %d of %d\n%s", rep.Completed, len(reqs), rep.DecisionLog())
	}
	for _, r := range rep.Results {
		if !r.Completed {
			t.Fatalf("req %d: %+v", r.ID, r)
		}
	}
	// The display model name defaults to the workload's own name.
	for _, r := range rep.Results[:2] {
		if r.Model != "custom-cnn" {
			t.Fatalf("req %d model %q", r.ID, r.Model)
		}
	}
}

// An invalid custom workload is refused at Submit — fail-closed, same
// as an unknown model name.
func TestSchedulerRejectsInvalidCustomWorkload(t *testing.T) {
	_, sc := bootSched(t, sched.Config{Cores: []int{0}})
	bad := workload.Workload{Name: "broken", Layers: []workload.Layer{
		{Name: "l0", GEMMs: []workload.GEMM{{Name: "g", M: 0, K: 8, N: 8}}},
	}}
	err := sc.Submit(sched.Request{ID: 1, Tenant: "x", Workload: &bad})
	if !errors.Is(err, sched.ErrBadRequest) {
		t.Fatalf("want ErrBadRequest, got %v", err)
	}
}

// Submit deep-copies the custom workload, so caller-side mutation
// after Submit cannot change what runs.
func TestSchedulerCopiesCustomWorkload(t *testing.T) {
	_, sc := bootSched(t, sched.Config{Cores: []int{0}})
	custom := customWorkload(t)
	if err := sc.Submit(sched.Request{ID: 1, Tenant: "c", Workload: &custom}); err != nil {
		t.Fatal(err)
	}
	custom.Layers[0].GEMMs[0].M = 1 // hostile post-submit mutation
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 1 {
		t.Fatalf("completed %d", rep.Completed)
	}
}

// Two different graphs sharing a display name and key must not share a
// secure batch; identical graphs may.
func TestSchedulerBatchesOnlyIdenticalGraphs(t *testing.T) {
	sys, sc := bootSched(t, sched.Config{Cores: []int{0}, MaxBatch: 4})
	sealed := sealFor(t, sys, "k", 7)
	a := customWorkload(t)
	b := customWorkload(t)
	b.Layers[0].GEMMs[0].N = 32 // same name, different graph
	reqs := []sched.Request{
		{ID: 1, Tenant: "t", Workload: &a, Secure: true, KeyID: "k", Sealed: sealed},
		{ID: 2, Tenant: "t", Workload: &a, Secure: true, KeyID: "k", Sealed: sealed},
		{ID: 3, Tenant: "t", Workload: &b, Secure: true, KeyID: "k", Sealed: sealed},
	}
	for _, r := range reqs {
		if err := sc.Submit(r); err != nil {
			t.Fatalf("submit %d: %v", r.ID, err)
		}
	}
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	batched := 0
	for _, r := range rep.Results {
		if !r.Completed {
			t.Fatalf("req %d: %+v", r.ID, r)
		}
		if r.Batched {
			batched++
			if r.ID == 3 {
				t.Fatal("request 3 (different graph) rode request 1's batch")
			}
		}
	}
	if batched != 1 {
		t.Fatalf("want exactly request 2 batched, got %d batched", batched)
	}
}

// A secure request whose weights outgrow the whole secure region can
// never be placed: admission defers it on a full secure memory, and
// once nothing runs and nothing is due to arrive the scheduler rejects
// it as stranded rather than waiting forever.
func TestSchedulerRejectsStrandedSecureRequest(t *testing.T) {
	sys, sc := bootSched(t, sched.Config{Cores: []int{0}})
	sealed := sealFor(t, sys, "k", 5)
	// 16384 x 20000 int8 weights, about 328 MB: more than the 256 MiB
	// secure region.
	big := workload.Workload{Name: "big", Layers: []workload.Layer{
		{Name: "g", GEMMs: []workload.GEMM{workload.MatMul("g", 16, 16384, 20000)}},
	}}
	if err := sc.Submit(sched.Request{ID: 1, Tenant: "t", Workload: &big, Secure: true, KeyID: "k", Sealed: sealed}); err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	log := rep.DecisionLog()
	if len(rep.Results) != 1 || !rep.Results[0].Rejected || rep.Rejected != 1 || rep.Completed != 0 {
		t.Fatalf("want the one request rejected, got %+v\n%s", rep.Results, log)
	}
	for _, want := range []string{"defer", "secure memory full", "reject", "no capacity"} {
		if !strings.Contains(log, want) {
			t.Fatalf("decision log lacks %q:\n%s", want, log)
		}
	}
}
