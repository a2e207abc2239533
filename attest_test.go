package snpu

import (
	"bytes"
	"testing"
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
