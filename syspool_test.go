package snpu

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/mem"
)

// This file pins the root-level half of the pooling contract: a
// recycled System (full protected SoC — boot chain, NPU, guarders,
// driver, monitor) behaves byte-identically to a fresh boot across
// reuse epochs, and a recycle leaves no prior tenant's key material or
// memory bytes observable.

// renderSystemScenario exercises the three pooled call sites' worth of
// machinery on one System lifetime each: a serve load point (scheduler
// decision outcomes: completions, preemptions, batching, fairness), a
// plain inference, and a sealed secure inference. Everything observable
// is rendered into one byte string.
func renderSystemScenario(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer

	row, err := serveLoadPoint(3, 0.2, 12)
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteString((&ServeBenchResult{Rows: []ServeBenchRow{row}}).TableString())

	sys, err := acquireSystem()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.release()
	r, err := sys.RunModel("yololite")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "plain %s %d %.6f\n", r.Model, r.Cycles, r.Utilization)

	key := bytes.Repeat([]byte{7}, 32)
	if err := sys.ProvisionKey("k", key); err != nil {
		t.Fatal(err)
	}
	sealed, err := SealModel(key, []byte("weights"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.SubmitSecure("yololite", "k", sealed)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := sys.RunSecure(h)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "secure %s %d %.6f\n", sr.Model, sr.Cycles, sr.Utilization)
	return buf.Bytes()
}

// TestSystemPoolDifferential: the scenario must render byte-identically
// with pooling off (fresh boots everywhere) and across two pooled
// epochs, the second of which runs entirely on recycled Systems.
func TestSystemPoolDifferential(t *testing.T) {
	experiments.SetPooling(false)
	fresh := renderSystemScenario(t)

	experiments.SetPooling(true)
	defer experiments.SetPooling(true)
	hits0, _ := SystemPoolCounters()
	epoch1 := renderSystemScenario(t)
	epoch2 := renderSystemScenario(t)
	hits1, _ := SystemPoolCounters()

	if !bytes.Equal(fresh, epoch1) {
		t.Errorf("epoch 1 (pooled) differs from fresh boots:\nfresh:\n%s\npooled:\n%s", fresh, epoch1)
	}
	if !bytes.Equal(fresh, epoch2) {
		t.Errorf("epoch 2 (recycled) differs from fresh boots:\nfresh:\n%s\npooled:\n%s", fresh, epoch2)
	}
	if hits1 == hits0 {
		t.Error("system pool recorded no hits across two epochs")
	}
}

// TestSystemPoolNoSecretLeak: plant tenant bytes in reserved and secure
// DRAM plus a sealing key in the monitor, release, and verify the
// recycled System exposes none of it.
func TestSystemPoolNoSecretLeak(t *testing.T) {
	experiments.SetPooling(false) // drop instances pooled by other tests
	experiments.SetPooling(true)
	defer experiments.SetPooling(true)

	sys, err := acquireSystem()
	if err != nil {
		t.Fatal(err)
	}
	key := bytes.Repeat([]byte{9}, 32)
	if err := sys.ProvisionKey("leak-key", key); err != nil {
		t.Fatal(err)
	}
	secret := bytes.Repeat([]byte{0xA5}, 4096)
	sys.soc.Phys.Write(experiments.ReservedBase, secret)
	sys.soc.Phys.Write(experiments.SecureBase, secret)

	sys.release()
	got, err := acquireSystem()
	if err != nil {
		t.Fatal(err)
	}
	defer got.release()
	if got != sys {
		t.Fatal("pool did not hand back the released System; leak check would be vacuous")
	}

	buf := make([]byte, len(secret))
	for _, region := range []struct {
		name string
		at   mem.PhysAddr
	}{
		{"npu-reserved", experiments.ReservedBase},
		{"secure", experiments.SecureBase},
	} {
		got.soc.Phys.Read(region.at, buf)
		if i := bytes.IndexByte(buf, 0xA5); i >= 0 {
			t.Errorf("prior tenant's byte observable in %s region at offset %d", region.name, i)
		}
	}

	for k, v := range got.Stats().Snapshot() {
		// Counter handles survive Reset (warm handles); values must not.
		if v != 0 {
			t.Errorf("recycled System carries prior stats: %s=%d", k, v)
		}
	}

	// The prior tenant's sealing key must be gone: a submit against it
	// has to fail, exactly as on a fresh boot.
	sealed, err := SealModel(key, []byte("weights"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.SubmitSecure("yololite", "leak-key", sealed); err == nil {
		t.Error("recycled System still accepts the prior tenant's key ID")
	}
}
