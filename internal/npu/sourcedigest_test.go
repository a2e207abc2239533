package npu

import (
	"slices"
	"testing"

	"repro/internal/workload"
)

// twoGemmWorkload builds a one-layer workload whose op stream is
// insensitive to the GEMM name — renaming a GEMM changes the source
// but not a single emitted op.
func twoGemmWorkload(name, gemmName string) workload.Workload {
	return workload.Workload{
		Name: name,
		Layers: []workload.Layer{
			{Name: "l0", GEMMs: []workload.GEMM{{Name: gemmName, M: 32, K: 64, N: 32}}},
		},
	}
}

// Compile stamps the workload's canonical digest into the program, and
// Measurement covers it: two workloads that compile to the *identical
// op stream* but differ in source (a renamed GEMM) must attest
// differently — the quote binds the compiled graph, not just the
// op-level behavior.
func TestMeasurementBindsSourceDigest(t *testing.T) {
	cfg := DefaultConfig()
	pa, _, err := Compile(twoGemmWorkload("m", "g_original"), cfg, 0, DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	pb, _, err := Compile(twoGemmWorkload("m", "g_renamed"), cfg, 0, DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ExpandOps(pa), ExpandOps(pb)) {
		t.Fatal("op streams differ — rename was supposed to be op-neutral")
	}
	if pa.SourceDigest == pb.SourceDigest {
		t.Fatal("different sources share a digest")
	}
	if pa.Measurement() == pb.Measurement() {
		t.Fatal("identical op streams from different sources share a measurement")
	}
	if pa.SourceDigest != workload.Digest(twoGemmWorkload("m", "g_original")) {
		t.Fatal("program digest is not the workload's canonical digest")
	}
	if pa.SourceDigest == ([32]byte{}) {
		t.Fatal("zero source digest")
	}
}

// The digest survives the model-parallel path: a sliced workload's
// compiled program keeps its source digest through the on-chip
// activation strip, and each slice's digest is the digest of that
// slice's source (what actually runs on the core).
func TestSourceDigestSurvivesSlicing(t *testing.T) {
	w, err := workload.Lookup("yololite")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	for i := 0; i < 2; i++ {
		slice := sliceWorkload(w, i, 2, cfg.SystolicDim)
		prog, _, err := CompileCached(slice, cfg, 0, DefaultLayout)
		if err != nil {
			t.Fatal(err)
		}
		if prog.SourceDigest != workload.Digest(slice) {
			t.Fatalf("slice %d digest is not its source digest", i)
		}
		stripped := stripOnChipActivations(prog)
		if stripped.SourceDigest != prog.SourceDigest {
			t.Fatalf("slice %d lost the digest in stripOnChipActivations", i)
		}
	}
}
