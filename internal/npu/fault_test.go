package npu

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

func TestCoreHangSurfacesHangError(t *testing.T) {
	n := testNPU(t, DefaultConfig(), nil)
	prog, _, err := Compile(smallWorkload(), n.Config(), 0, DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(fault.Plan{Events: []fault.Event{
		{At: 0, Kind: fault.CoreHang},
	}}, nil)
	n.AttachInjector(inj)

	core, _ := n.Core(0)
	_, err = NewExec(core, prog, 1).Run(0)
	var hang *HangError
	if !errors.As(err, &hang) {
		t.Fatalf("err = %v, want HangError", err)
	}
	if hang.Core != 0 {
		t.Fatalf("hang on core %d", hang.Core)
	}
	// The watchdog notices the hang one watchdog period after the op
	// that wedged, so detection is strictly later than the hang itself.
	if hang.Detected < DefaultHangWatchdog {
		t.Fatalf("detected at %d, before a full watchdog period", hang.Detected)
	}
	if inj.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", inj.Injected())
	}
}

// An armed-but-empty injector must not change execution at all — the
// zero-overhead-when-off invariant at the core level.
func TestEmptyInjectorDoesNotPerturbExec(t *testing.T) {
	run := func(attach bool) sim.Cycle {
		n := testNPU(t, DefaultConfig(), nil)
		prog, _, err := Compile(smallWorkload(), n.Config(), 0, DefaultLayout)
		if err != nil {
			t.Fatal(err)
		}
		if attach {
			n.AttachInjector(fault.NewInjector(fault.Plan{}, sim.NewStats()))
		}
		core, _ := n.Core(0)
		end, err := NewExec(core, prog, 1).Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	if plain, armed := run(false), run(true); plain != armed {
		t.Fatalf("empty injector changed cycles: %d vs %d", plain, armed)
	}
}
