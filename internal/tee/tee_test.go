package tee

import (
	"errors"
	"testing"

	"repro/internal/mem"
)

func newMachine(t *testing.T) *Machine {
	t.Helper()
	phys := mem.NewPhysical()
	for _, r := range []mem.Region{
		{Name: "normal", Base: 0x8000_0000, Size: 0x1000_0000, Owner: mem.Normal, CrossPerm: mem.PermRW},
		{Name: "secure", Base: 0x9000_0000, Size: 0x0800_0000, Owner: mem.Secure},
	} {
		if err := phys.AddRegion(r); err != nil {
			t.Fatal(err)
		}
	}
	return NewMachine(phys)
}

func TestContextPrivilege(t *testing.T) {
	m := newMachine(t)
	if err := m.SecureContext().RequireSecure(); err != nil {
		t.Fatalf("secure context rejected: %v", err)
	}
	if err := m.NormalContext().RequireSecure(); !errors.Is(err, ErrPrivilege) {
		t.Fatalf("normal context passed privilege check: %v", err)
	}
	var zero Context
	if err := zero.RequireSecure(); err == nil {
		t.Fatal("zero context passed privilege check")
	}
}

func chainFor(blobs ...[]byte) (*BootChain, [][]byte) {
	b := NewBootChain()
	names := []string{"trusted-loader", "trusted-firmware", "teeos", "npu-monitor"}
	for i, blob := range blobs {
		b.AddStage(names[i%len(names)], MeasureBytes(blob))
	}
	return b, blobs
}

func TestBootChainVerifies(t *testing.T) {
	chain, blobs := chainFor([]byte("loader"), []byte("firmware"), []byte("teeos"), []byte("monitor"))
	if err := chain.Boot(blobs); err != nil {
		t.Fatal(err)
	}
	if !chain.Verified() {
		t.Fatal("chain not verified after clean boot")
	}
	att1 := chain.Attestation()
	// Re-boot with identical blobs: deterministic attestation.
	if err := chain.Boot(blobs); err != nil {
		t.Fatal(err)
	}
	if chain.Attestation() != att1 {
		t.Fatal("attestation not deterministic")
	}
}

func TestBootChainFailsClosedOnTamper(t *testing.T) {
	chain, blobs := chainFor([]byte("loader"), []byte("firmware"), []byte("teeos"))
	blobs[1] = []byte("evil-firmware")
	err := chain.Boot(blobs)
	if err == nil {
		t.Fatal("tampered firmware booted")
	}
	if chain.Verified() {
		t.Fatal("chain verified despite tamper")
	}
	if chain.FailedStage() != "trusted-firmware" {
		t.Fatalf("failed stage = %q", chain.FailedStage())
	}
}

func TestBootChainOrderMatters(t *testing.T) {
	a, b := []byte("aaa"), []byte("bbb")
	c1, _ := chainFor(a, b)
	c2, _ := chainFor(b, a)
	if err := c1.Boot([][]byte{a, b}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Boot([][]byte{b, a}); err != nil {
		t.Fatal(err)
	}
	if c1.Attestation() == c2.Attestation() {
		t.Fatal("attestation insensitive to stage order")
	}
}

func TestBootChainBlobCountMismatch(t *testing.T) {
	chain, _ := chainFor([]byte("x"), []byte("y"))
	if err := chain.Boot([][]byte{[]byte("x")}); err == nil {
		t.Fatal("short blob list accepted")
	}
}

func TestMachineBootGatesSecured(t *testing.T) {
	m := newMachine(t)
	if m.Secured() {
		t.Fatal("machine secured before boot")
	}
	loader, fw := []byte("ldr"), []byte("fw")
	m.BootChain().AddStage("loader", MeasureBytes(loader))
	m.BootChain().AddStage("firmware", MeasureBytes(fw))
	if err := m.Boot([][]byte{loader, []byte("tampered")}); err == nil {
		t.Fatal("tampered boot succeeded")
	}
	if m.Secured() {
		t.Fatal("machine secured after failed boot")
	}
	if err := m.Boot([][]byte{loader, fw}); err != nil {
		t.Fatal(err)
	}
	if !m.Secured() {
		t.Fatal("machine not secured after clean boot")
	}
}
