package npu

import (
	"testing"

	"repro/internal/workload"
)

func TestSliceOfNCoversExactly(t *testing.T) {
	for _, c := range []struct {
		n, parts, dim int
	}{
		{64, 4, 16}, {65, 4, 16}, {16, 4, 16}, {1, 4, 16}, {1000, 3, 16}, {48, 2, 16},
	} {
		total := 0
		for p := 0; p < c.parts; p++ {
			s := sliceOfN(c.n, p, c.parts, c.dim)
			if s < 0 {
				t.Fatalf("n=%d parts=%d part=%d: negative slice", c.n, c.parts, p)
			}
			total += s
		}
		if total != c.n {
			t.Fatalf("n=%d parts=%d: slices sum to %d", c.n, c.parts, total)
		}
	}
}

func TestSliceWorkloadPreservesStructure(t *testing.T) {
	w := smallWorkload()
	var totalMACs int64
	for p := 0; p < 4; p++ {
		s := sliceWorkload(w, p, 4, 16)
		if len(s.Layers) != len(w.Layers) {
			t.Fatalf("part %d: %d layers", p, len(s.Layers))
		}
		totalMACs += s.MACs()
	}
	// Slice MACs sum to at least the original (padding slices of tiny
	// N may add a little).
	if totalMACs < w.MACs() {
		t.Fatalf("slices lost work: %d < %d", totalMACs, w.MACs())
	}
}

func TestStripOnChipActivations(t *testing.T) {
	prog, _, err := Compile(smallWorkload(), DefaultConfig(), 0, DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	stripped := stripOnChipActivations(prog)
	for i, op := range stripped.Ops {
		switch op.Kind {
		case OpLoad:
			if !op.Weight && op.Layer > 0 {
				t.Fatalf("op %d: activation load survived in layer %d", i, op.Layer)
			}
		case OpStore:
			if !op.Weight && op.Layer < prog.Layers-1 {
				t.Fatalf("op %d: activation store survived in layer %d", i, op.Layer)
			}
		}
	}
	// Weight loads all survive.
	count := func(p *Program, weight bool) int {
		n := 0
		for _, op := range p.Ops {
			if op.Kind == OpLoad && op.Weight == weight {
				n++
			}
		}
		return n
	}
	if count(stripped, true) != count(prog, true) {
		t.Fatal("weight loads were stripped")
	}
	if count(stripped, false) >= count(prog, false) {
		t.Fatal("no activation loads were stripped")
	}
	// Original untouched.
	if len(prog.Ops) == len(stripped.Ops) {
		t.Fatal("nothing stripped at all")
	}
}

func TestRunModelParallelValidation(t *testing.T) {
	n := testNPU(t, DefaultConfig(), nil)
	w := smallWorkload()
	if _, err := n.RunModelParallel(w, nil, TransferNoC, nil); err == nil {
		t.Fatal("empty core list accepted")
	}
	if _, err := n.RunModelParallel(w, []int{99}, TransferNoC, nil); err == nil {
		t.Fatal("out-of-range core accepted")
	}
	if _, err := n.RunModelParallel(w, []int{0, 1}, TransferMode(9), nil); err == nil {
		t.Fatal("unknown transfer mode accepted")
	}
}

func TestRunModelParallelMapWindowFailurePropagates(t *testing.T) {
	n := testNPU(t, DefaultConfig(), nil)
	called := 0
	_, err := n.RunModelParallel(smallWorkload(), []int{0, 1}, TransferNoC,
		func(coreID int, prog *Program) error {
			called++
			return errTest
		})
	if err == nil {
		t.Fatal("mapWindow failure swallowed")
	}
	if called == 0 {
		t.Fatal("mapWindow never called")
	}
}

var errTest = workload.Workload{}.Validate() // any non-nil error

func TestRunModelParallelSingleCoreDegeneratesToSolo(t *testing.T) {
	w := smallWorkload()
	n1 := testNPU(t, DefaultConfig(), nil)
	res, err := n1.RunModelParallel(w, []int{0}, TransferNoC, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One core: no exchanges at all.
	if res.TransferCycles != 0 {
		t.Fatalf("single-core run exchanged %d cycles", res.TransferCycles)
	}
	if res.TotalCycles <= 0 {
		t.Fatal("no cycles")
	}
}

// The retired NoC send/receive kinds (3, 4) and any other unknown kind
// fail at run time too, for a program that skipped Validate.
func TestExecRejectsNoCOpsStandalone(t *testing.T) {
	n := testNPU(t, DefaultConfig(), nil)
	core, _ := n.Core(0)
	for _, k := range []OpKind{3, 4, 77} {
		prog := &Program{Name: "bad", Layers: 1, Ops: []Op{{Kind: k, Layer: 0}}}
		if _, err := NewExec(core, prog, 1).Run(0); err == nil {
			t.Fatalf("op kind %d executed", k)
		}
	}
}
