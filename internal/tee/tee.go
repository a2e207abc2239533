// Package tee models the CPU-side trusted execution environment the
// paper builds on (§II background; Penglai-style on RISC-V): a two-world
// hardware partition (the region owners in mem.Physical), a secure-boot
// measurement chain, and the privilege gate that makes "secure
// instructions" (the only way to program sNPU security state)
// meaningful in the simulation.
package tee

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"repro/internal/mem"
)

// ErrPrivilege is returned when normal-world software invokes an
// operation reserved for the secure world.
var ErrPrivilege = errors.New("tee: secure instruction issued from normal world")

// Context identifies the world a piece of software executes in. It is
// the simulation's stand-in for the hardware privilege state: holders
// of a Secure context model code running behind the EL3/M-mode gate.
//
// Contexts are handed out by the Machine; components that must only be
// programmable from the secure world demand a Context and verify it.
type Context struct {
	machine *Machine
	world   mem.World
}

// World reports the hardware world this context executes in.
func (c Context) World() mem.World { return c.world }

// RequireSecure returns ErrPrivilege unless the context is secure.
// Every "secure instruction" in the sNPU design funnels through this.
func (c Context) RequireSecure() error {
	if c.machine == nil {
		return errors.New("tee: uninitialized context")
	}
	if c.world != mem.Secure {
		return ErrPrivilege
	}
	return nil
}

// Machine is the SoC's trust anchor: it owns the world partition and
// the secure-boot state. Exactly one Machine exists per simulated SoC.
type Machine struct {
	phys    *mem.Physical
	boot    *BootChain
	secured bool
}

// NewMachine wires the trust anchor to physical memory.
func NewMachine(phys *mem.Physical) *Machine {
	return &Machine{phys: phys, boot: NewBootChain()}
}

// Phys exposes the physical memory (hardware components need it).
func (m *Machine) Phys() *mem.Physical { return m.phys }

// SecureContext returns the secure-world execution context. In
// hardware this is "being EL3/M-mode"; in the simulation only the
// monitor and TEE OS construction paths should call it.
func (m *Machine) SecureContext() Context {
	return Context{machine: m, world: mem.Secure}
}

// NormalContext returns the untrusted-world execution context used by
// the OS, the NPU driver, and non-secure tasks.
func (m *Machine) NormalContext() Context {
	return Context{machine: m, world: mem.Normal}
}

// Measurement is a sha256 digest used throughout the trust chain.
type Measurement [sha256.Size]byte

func (m Measurement) String() string { return fmt.Sprintf("%x", m[:8]) }

// MeasureBytes hashes a blob into a Measurement.
func MeasureBytes(b []byte) Measurement { return sha256.Sum256(b) }

// BootStage is one link of the secure-boot chain: a named blob with
// its expected measurement.
type BootStage struct {
	Name     string
	Expected Measurement
}

// BootChain models the paper's secure boot flow: the ROM verifies the
// trusted loader, which verifies trusted firmware, which verifies the
// TEE OS and NPU Monitor before any normal-world software runs. Each
// stage extends a running measurement (TPM-PCR style) so the final
// digest attests the whole chain.
type BootChain struct {
	stages   []BootStage
	extended Measurement
	verified bool
	failed   string
}

// NewBootChain returns an empty, unverified chain.
func NewBootChain() *BootChain {
	return &BootChain{}
}

// AddStage appends a stage with its expected (vendor-signed)
// measurement. Stages must be added before Boot.
func (b *BootChain) AddStage(name string, expected Measurement) {
	b.stages = append(b.stages, BootStage{Name: name, Expected: expected})
}

// Boot verifies each provided blob against its expected measurement in
// order, extending the chain digest. It fails closed: the first
// mismatch marks the chain failed and stops.
func (b *BootChain) Boot(blobs [][]byte) error {
	if len(blobs) != len(b.stages) {
		return fmt.Errorf("tee: boot got %d blobs for %d stages", len(blobs), len(b.stages))
	}
	b.extended = Measurement{}
	for i, stage := range b.stages {
		got := MeasureBytes(blobs[i])
		if got != stage.Expected {
			b.verified = false
			b.failed = stage.Name
			return fmt.Errorf("tee: secure boot failed at stage %q: measurement mismatch", stage.Name)
		}
		h := sha256.New()
		h.Write(b.extended[:])
		h.Write(got[:])
		copy(b.extended[:], h.Sum(nil))
	}
	b.verified = true
	b.failed = ""
	return nil
}

// Verified reports whether the full chain booted cleanly.
func (b *BootChain) Verified() bool { return b.verified }

// FailedStage names the stage that broke the chain, if any.
func (b *BootChain) FailedStage() string { return b.failed }

// Attestation returns the extended chain digest (the simulated
// Root-of-Trust report).
func (b *BootChain) Attestation() Measurement { return b.extended }

// Boot runs the machine's secure-boot chain and, on success, marks the
// machine secured. sNPU components refuse secure configuration until
// the machine is secured.
func (m *Machine) Boot(blobs [][]byte) error {
	if err := m.boot.Boot(blobs); err != nil {
		return err
	}
	m.secured = true
	return nil
}

// BootChain exposes the machine's boot chain for staging.
func (m *Machine) BootChain() *BootChain { return m.boot }

// Secured reports whether secure boot completed.
func (m *Machine) Secured() bool { return m.secured }
