package snpu

import (
	"bytes"
	"testing"

	"repro/internal/spad"
	"repro/internal/workload"
)

func TestNewBootsProtectedSystem(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sys.Monitor() == nil {
		t.Fatal("protected system has no monitor")
	}
	if !sys.Machine().Secured() {
		t.Fatal("machine not secure-booted")
	}
	if len(sys.NPU().Cores()) != 10 {
		t.Fatalf("cores = %d", len(sys.NPU().Cores()))
	}
}

func TestBaselineHasNoMonitor(t *testing.T) {
	sys, err := New(BaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sys.Monitor() != nil {
		t.Fatal("baseline grew a monitor")
	}
	if _, err := sys.SubmitSecure("alexnet", "k", nil); err == nil {
		t.Fatal("secure submit on baseline succeeded")
	}
	if err := sys.ProvisionKey("k", make([]byte, SealKeySize)); err == nil {
		t.Fatal("key provisioning on baseline succeeded")
	}
}

func TestWorkloadsList(t *testing.T) {
	names := Workloads()
	if len(names) != 6 {
		t.Fatalf("workloads = %v", names)
	}
}

func TestRunModelNonSecure(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunModel("yololite")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.MACs <= 0 {
		t.Fatalf("result %+v", res)
	}
	if res.Utilization <= 0 || res.Utilization >= 1 {
		t.Fatalf("utilization %v", res.Utilization)
	}
	if _, err := sys.RunModel("nonexistent"); err == nil {
		t.Fatal("unknown model ran")
	}
}

func TestRunCustomWorkload(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := workload.Workload{
		Name: "custom",
		Layers: []workload.Layer{
			{Name: "l0", GEMMs: []workload.GEMM{{Name: "g", M: 64, K: 64, N: 64}}},
		},
	}
	res, err := sys.RunWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "custom" || res.Cycles <= 0 {
		t.Fatalf("result %+v", res)
	}
}

func TestSecureLifecycle(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	key := bytes.Repeat([]byte{5}, SealKeySize)
	if err := sys.ProvisionKey("owner", key); err != nil {
		t.Fatal(err)
	}
	sealed, err := SealModel(key, []byte("weights"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.SubmitSecure("yololite", "owner", sealed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunSecure(h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatalf("secure run: %+v", res)
	}
	// After unload the core is back in the normal world.
	core, _ := sys.NPU().Core(0)
	if core.Domain() != spad.NonSecure {
		t.Fatal("core left in secure domain after RunSecure")
	}
	// Tampered sealed model is rejected at submit.
	sealed[len(sealed)-1] ^= 1
	if _, err := sys.SubmitSecure("yololite", "owner", sealed); err == nil {
		t.Fatal("tampered model accepted")
	}
}

func TestSecureAndNonSecureRunsCoexist(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	key := bytes.Repeat([]byte{1}, SealKeySize)
	if err := sys.ProvisionKey("k", key); err != nil {
		t.Fatal(err)
	}
	sealed, err := SealModel(key, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.SubmitSecure("yololite", "k", sealed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunSecure(h); err != nil {
		t.Fatal(err)
	}
	// A non-secure run still works afterwards (contexts were reset).
	if _, err := sys.RunModel("yololite"); err != nil {
		t.Fatalf("non-secure run after secure run: %v", err)
	}
}

func TestTimeShareFlushVsNoFlush(t *testing.T) {
	run := func(flush bool) TimeShareResult {
		sys, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		r, err := sys.TimeShare("yololite", "yololite", FlushPerTile, flush)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	flushed := run(true)
	clean := run(false)
	if clean.FlushCycles != 0 {
		t.Fatal("no-flush run paid flush cycles")
	}
	if flushed.FlushCycles <= 0 {
		t.Fatal("flushed run paid nothing")
	}
	if flushed.Makespan() <= clean.Makespan() {
		t.Fatalf("flushing not slower: %d vs %d", flushed.Makespan(), clean.Makespan())
	}
}

// Each model-parallel run on one System starts from idle NoC links, so
// a repeat reports the same cycles as the first run on the fresh
// System.
func TestRunModelParallelRepeatable(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var first ModelParallelResult
	for i := 0; i < 3; i++ {
		res, err := sys.RunModelParallel("yololite", []int{0, 1, 5, 6}, TransferNoC)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
		} else if res != first {
			t.Fatalf("run %d: %+v, first run %+v", i+1, res, first)
		}
	}
}
