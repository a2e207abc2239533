package npu_test

import (
	"bytes"
	"testing"

	snpu "repro"
	"repro/internal/npu"
	"repro/internal/sched"
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
