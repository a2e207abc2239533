package snpu

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/monitor"
	"repro/internal/npu"
	"repro/internal/workload"
)

func TestAttestationFlow(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	key := bytes.Repeat([]byte{2}, SealKeySize)
	if err := sys.ProvisionKey("owner", key); err != nil {
		t.Fatal(err)
	}
	sealed, err := SealModel(key, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.SubmitSecure("yololite", "owner", sealed)
	if err != nil {
		t.Fatal(err)
	}
	const nonce = 42
	rep, err := sys.Attest(h, nonce)
	if err != nil {
		t.Fatal(err)
	}
	// The owner verifies against the program measurement they expect.
	expected := h.prog.Measurement()
	if err := sys.VerifyAttestation(rep, expected, nonce); err != nil {
		t.Fatal(err)
	}
	// Wrong nonce or measurement fails.
	if err := sys.VerifyAttestation(rep, expected, nonce+1); err == nil {
		t.Fatal("stale nonce verified")
	}
	var evil [32]byte
	if err := sys.VerifyAttestation(rep, evil, nonce); err == nil {
		t.Fatal("wrong measurement verified")
	}
	if _, err := sys.Attest(nil, 1); err == nil {
		t.Fatal("nil handle attested")
	}
	base, err := New(BaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Attest(h, 1); err == nil {
		t.Fatal("baseline attested")
	}
}

// ownedSystem boots a protected System, provisions the owner's key and
// returns the system, the key and a model blob sealed under it.
func ownedSystem(t *testing.T) (*System, []byte, []byte) {
	t.Helper()
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	key := bytes.Repeat([]byte{4}, SealKeySize)
	if err := sys.ProvisionKey("owner", key); err != nil {
		t.Fatal(err)
	}
	sealed, err := SealModel(key, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	return sys, key, sealed
}

// ownerMeasurement is a model owner's expected value: their own compile
// of the model at the secure layout, measured on their side.
func ownerMeasurement(t *testing.T, sys *System, name string) [32]byte {
	t.Helper()
	w, err := workload.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := npu.Compile(w, sys.cfg.NPU, 0, npu.DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Measurement()
}

// The quote binds the measurement the monitor verified at FnSubmit, not
// the program the handle points to in driver memory: swapping that
// program for another model's after submit does not change the quote.
// A task the monitor no longer holds gets no quote.
func TestAttestQuotesVerifiedProgram(t *testing.T) {
	sys, _, sealed := ownedSystem(t)
	h, err := sys.SubmitSecure("yololite", "owner", sealed)
	if err != nil {
		t.Fatal(err)
	}
	other, err := sys.SubmitSecure("mobilenet", "owner", sealed)
	if err != nil {
		t.Fatal(err)
	}
	submitted := h.prog
	h.prog = other.prog
	const nonce = 9
	rep, err := sys.Attest(h, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.VerifyAttestation(rep, ownerMeasurement(t, sys, "yololite"), nonce); err != nil {
		t.Fatalf("quote after the program swap: %v", err)
	}
	if err := sys.VerifyAttestation(rep, ownerMeasurement(t, sys, "mobilenet"), nonce); err == nil {
		t.Fatal("quote verified as the swapped-in program")
	}
	h.prog = submitted
	if _, err := sys.RunSecure(h); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Attest(h, nonce); !errors.Is(err, monitor.ErrUnknownTask) {
		t.Fatalf("task quoted after RunSecure unloaded it: %v", err)
	}
}

// Reset drops every task and task IDs restart at 1, so a handle from
// before it must name no task, even when a later submit reuses its ID:
// it gets no quote and does not run in the new task.
func TestHandleFromBeforeResetNamesNoTask(t *testing.T) {
	sys, key, sealed := ownedSystem(t)
	stale, err := sys.SubmitSecure("yololite", "owner", sealed)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Attest(stale, 1); !errors.Is(err, monitor.ErrUnknownTask) {
		t.Fatalf("task quoted after Reset: %v", err)
	}
	if err := sys.ProvisionKey("owner", key); err != nil {
		t.Fatal(err)
	}
	h, err := sys.SubmitSecure("mobilenet", "owner", sealed)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != stale.ID {
		t.Fatalf("the submit after Reset got ID %d, want the reused %d", h.ID, stale.ID)
	}
	if _, err := sys.Attest(stale, 1); !errors.Is(err, monitor.ErrUnknownTask) {
		t.Fatalf("a handle from before Reset was quoted as the new task: %v", err)
	}
	if _, err := sys.RunSecure(stale); !errors.Is(err, monitor.ErrUnknownTask) {
		t.Fatalf("a handle from before Reset ran in the new task: %v", err)
	}
	rep, err := sys.Attest(h, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.VerifyAttestation(rep, ownerMeasurement(t, sys, "mobilenet"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunSecure(h); err != nil {
		t.Fatal(err)
	}
}
