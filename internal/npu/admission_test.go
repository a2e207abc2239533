package npu_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	snpu "repro"
	"repro/internal/guarder"
	"repro/internal/mem"
	"repro/internal/npu"
	"repro/internal/sched"
	"repro/internal/workload"
)

// secureSystem boots a protected System with one provisioned key and
// returns it with a blob sealed under that key.
func secureSystem(t *testing.T) (*snpu.System, []byte) {
	t.Helper()
	sys, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	key := bytes.Repeat([]byte{3}, snpu.SealKeySize)
	if err := sys.ProvisionKey("k", key); err != nil {
		t.Fatal(err)
	}
	sealed, err := snpu.SealModel(key, []byte("weights"))
	if err != nil {
		t.Fatal(err)
	}
	return sys, sealed
}

// hashes reports how many Measurement calls fn makes.
func hashes(t *testing.T, fn func()) int64 {
	t.Helper()
	before := npu.MeasurementCalls()
	fn()
	return npu.MeasurementCalls() - before
}

// Once a program's owner measurement is memoized, a secure admission
// hashes once (the monitor's §IV code verifier), and an attestation
// quote not at all: the monitor quotes the value its verifier kept.
func TestSubmitSecureHashesOnce(t *testing.T) {
	sys, sealed := secureSystem(t)
	admit := func() *snpu.SecureTaskHandle {
		h, err := sys.SubmitSecure("yololite", "k", sealed)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	admit() // warm-up: compiles and memoizes the owner's value
	for i := 0; i < 3; i++ {
		var h *snpu.SecureTaskHandle
		if n := hashes(t, func() { h = admit() }); n != 1 {
			t.Fatalf("SubmitSecure hashed the program %d times, want 1", n)
		}
		if n := hashes(t, func() {
			if _, err := sys.Attest(h, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("Attest hashed the program %d times, want 0", n)
		}
		if _, err := sys.RunSecure(h); err != nil {
			t.Fatal(err)
		}
	}
}

// The scheduler's FnSubmit reads the owner memo too: a secure admission
// hashes once, and a request that joins its batch rides that FnSubmit
// without hashing at all.
func TestSchedulerAdmissionHashesOnce(t *testing.T) {
	sys, sealed := secureSystem(t)
	episode := func(n int) *sched.Report {
		t.Helper()
		sc, err := sys.NewScheduler(sched.Config{Cores: []int{0}})
		if err != nil {
			t.Fatal(err)
		}
		for id := 1; id <= n; id++ {
			req := sched.Request{ID: id, Tenant: "a", Model: "yololite", Secure: true, KeyID: "k", Sealed: sealed}
			if err := sc.Submit(req); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed != n {
			t.Fatalf("%d of %d requests completed", rep.Completed, n)
		}
		return rep
	}
	episode(1) // warm-up
	if n := hashes(t, func() { episode(1) }); n != 1 {
		t.Fatalf("one secure admission hashed %d times, want 1", n)
	}
	var rep *sched.Report
	if n := hashes(t, func() { rep = episode(2) }); n != 1 {
		t.Fatalf("an admission plus a batch joiner hashed %d times, want 1", n)
	}
	if rep.BatchedRuns != 1 {
		t.Fatalf("%d batched runs, want the second request to join the first", rep.BatchedRuns)
	}
}

// The scheduler compiles every request at the default layout and maps
// only the running job's window: at each non-secure dispatch and
// resume, the core's one valid non-secure translation register holds
// the starting request's window. So the requests of one model share one
// compile; the IDs here are used by no other test, so a layout per
// request would miss the cache once per request.
func TestSchedulerCompilesOnceAndMapsOneWindow(t *testing.T) {
	sys, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	episode := func(onDecision func(sched.Decision), reqs ...sched.Request) *sched.Report {
		t.Helper()
		sc, err := sys.NewScheduler(sched.Config{Cores: []int{0}, OnDecision: onDecision})
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range reqs {
			if err := sc.Submit(req); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed != len(reqs) {
			t.Fatalf("%d of %d requests completed", rep.Completed, len(reqs))
		}
		return rep
	}

	var four []sched.Request
	for id := 7101; id <= 7104; id++ {
		four = append(four, sched.Request{ID: id, Tenant: "a", Model: "yololite"})
	}
	_, before := npu.ProgCacheCounters()
	episode(nil, four...)
	if _, after := npu.ProgCacheCounters(); after-before > 1 {
		t.Fatalf("four yololite requests missed the compile cache %d times, want at most 1", after-before)
	}

	window := func(model string) guarder.TransReg {
		w, err := workload.Lookup(model)
		if err != nil {
			t.Fatal(err)
		}
		prog, _, err := npu.CompileCached(w, snpu.DefaultConfig().NPU, 0, npu.DefaultLayout)
		if err != nil {
			t.Fatal(err)
		}
		vbase, size := mem.PageWindow(prog.VASpan())
		return guarder.TransReg{VBase: vbase, Size: size}
	}
	want := map[string]guarder.TransReg{"yololite": window("yololite"), "alexnet": window("alexnet")}
	core, err := sys.NPU().Core(0)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := core.DMA().Translator().(*guarder.Guarder)
	if !ok {
		t.Fatal("core 0 has no Guarder")
	}
	var starts []string
	check := func(d sched.Decision) {
		if d.Event != "dispatch" && d.Event != "resume" {
			return
		}
		starts = append(starts, fmt.Sprintf("%s %d", d.Event, d.Req))
		var valid []guarder.TransReg
		for _, r := range g.TransRegs()[1:] { // slot 0 is the secure task's
			if r.Valid {
				valid = append(valid, r)
			}
		}
		w := want[d.Model]
		if len(valid) != 1 || valid[0].VBase != w.VBase || valid[0].Size != w.Size {
			t.Errorf("%s of req %d (%s): valid non-secure windows %+v, want only [%#x,+%#x)",
				d.Event, d.Req, d.Model, valid, uint64(w.VBase), w.Size)
		}
	}
	rep := episode(check,
		sched.Request{ID: 7201, Tenant: "lo", Model: "yololite"},
		sched.Request{ID: 7202, Tenant: "hi", Model: "alexnet", Priority: 1, Arrival: 200_000})
	if rep.Preemptions != 1 {
		t.Fatalf("%d preemptions, want the alexnet request to preempt the yololite one", rep.Preemptions)
	}
	if got, wantStarts := strings.Join(starts, ", "), "dispatch 7201, dispatch 7202, resume 7201"; got != wantStarts {
		t.Fatalf("starts %q, want %q", got, wantStarts)
	}
}
