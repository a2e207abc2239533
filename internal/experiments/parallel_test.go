package experiments

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/npu"
	"repro/internal/workload"
)

// withWorkers runs fn under a fixed pool width, restoring the default
// afterwards.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	SetWorkers(n)
	defer SetWorkers(0)
	fn()
}

// TestRunCellsOrderAndErrors exercises the pool mechanics directly:
// results land in index order, every cell runs, and the reported error
// is the lowest-indexed one regardless of completion order.
func TestRunCellsOrderAndErrors(t *testing.T) {
	withWorkers(t, 4, func() {
		var ran atomic.Int64
		got, err := runCells(100, func(i int) (int, error) {
			ran.Add(1)
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if ran.Load() != 100 {
			t.Fatalf("ran %d cells, want 100", ran.Load())
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("results[%d] = %d, want %d", i, v, i*i)
			}
		}
	})
}

func TestRunCellsLowestError(t *testing.T) {
	withWorkers(t, 8, func() {
		wantErr := map[int]bool{3: true, 7: true, 40: true}
		_, err := runCells(64, func(i int) (int, error) {
			if wantErr[i] {
				return 0, errAt(i)
			}
			return i, nil
		})
		if err == nil || err.Error() != errAt(3).Error() {
			t.Fatalf("error = %v, want lowest-indexed %v", err, errAt(3))
		}
	})
}

type errAt int

func (e errAt) Error() string { return "cell failed" }

// TestParallelDeterminism is the fast in-package half of the
// parallel-determinism contract: the same experiment run sequentially
// and on a 4-wide pool must produce deeply equal rows (every cycle
// count bit-identical). The full-suite byte-level differential lives
// in cmd/snpu-bench.
func TestParallelDeterminism(t *testing.T) {
	cfg := npu.DefaultConfig()
	w, err := workload.Lookup("yololite")
	if err != nil {
		t.Fatal(err)
	}
	models := []workload.Workload{w}

	var seq13, par13 *Fig13Result
	var seq17, par17 *Result[Fig17Row]
	withWorkers(t, 1, func() {
		seq13, err = Fig13(models, cfg)
		if err == nil {
			seq17, err = Fig17(models, cfg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	withWorkers(t, 4, func() {
		par13, err = Fig13(models, cfg)
		if err == nil {
			par17, err = Fig17(models, cfg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq13, par13) {
		t.Errorf("fig13 rows differ between -j 1 and -j 4:\nseq: %+v\npar: %+v", seq13.Rows, par13.Rows)
	}
	if !reflect.DeepEqual(seq17.Rows, par17.Rows) {
		t.Errorf("fig17 rows differ between -j 1 and -j 4:\nseq: %+v\npar: %+v", seq17.Rows, par17.Rows)
	}
}
