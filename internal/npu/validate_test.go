package npu

import (
	"strings"
	"testing"
)

// Regression: RunModelParallel used to accept a duplicated core ID and
// silently interleave two executors on the same pipeline cursor. It
// must refuse before any channel resource is claimed.
func TestRunModelParallelRejectsDuplicateCores(t *testing.T) {
	n := testNPU(t, DefaultConfig(), nil)
	_, err := n.RunModelParallel(smallWorkload(), []int{0, 1, 0}, TransferNoC, nil)
	if err == nil {
		t.Fatal("duplicate core list accepted")
	}
	if !strings.Contains(err.Error(), "twice") {
		t.Fatalf("err = %v, want duplicate-core rejection", err)
	}
	if got := n.Channel().NextFree(); got != 0 {
		t.Fatalf("channel claimed to %d before validation", got)
	}
}

func TestRunModelParallelRejectsOutOfRangeCores(t *testing.T) {
	n := testNPU(t, DefaultConfig(), nil)
	for _, cores := range [][]int{{-1}, {0, 99}, {0, 1, n.Config().Tiles}} {
		if _, err := n.RunModelParallel(smallWorkload(), cores, TransferNoC, nil); err == nil {
			t.Fatalf("cores %v accepted", cores)
		}
	}
}

// Distinct, in-range cores still run.
func TestRunModelParallelValidCoresStillRun(t *testing.T) {
	n := testNPU(t, DefaultConfig(), nil)
	res, err := n.RunModelParallel(smallWorkload(), []int{0, 1}, TransferNoC, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles <= 0 {
		t.Fatalf("total cycles = %d", res.TotalCycles)
	}
}
