package snpu

// This file is the system-level fault story: installing a fault plan
// arms every hardware site's injector; runSecure, behind RunSecure and
// RunSecureResilient, is the NPU Monitor-backed recovery policy on top
// of the per-site detection mechanisms (ECC, CRC+retry, parity,
// watchdogs).
//
// The escalation ladder, bottom to top:
//
//	site-local    ECC correction, CRC NACK+retry, IOTLB re-walk,
//	              DMA watchdog reissue — invisible above the DMA/NoC API
//	task-level    an unrecovered site error or a hung core surfaces as
//	              an execution error; the Monitor aborts the task
//	              fail-closed (scratchpads scrubbed, Guarder cleared,
//	              model + chunk zeroed) and the run restarts from the
//	              last layer-boundary checkpoint
//	core-level    a core that hangs twice in a row is marked unhealthy
//	              and the task remaps to the next core
//	give-up       past the restart budget the task is abandoned; the
//	              untrusted driver sees only the opaque ErrTaskAborted
//
// Nothing here reads a wall clock or global randomness: with the same
// plan the whole ladder replays byte-identically.

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/monitor"
	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/spad"
	"repro/internal/trace"
)

// ErrTaskAborted is the opaque error the untrusted driver observes
// when a secure task is finally abandoned. It deliberately carries no
// detail about what happened inside the secure world.
var ErrTaskAborted = errors.New("snpu: secure task aborted")

// restartBudget bounds RunSecureResilient's consecutive checkpoint
// restarts without progress.
const restartBudget = 3

// InstallFaultPlan arms the whole SoC with a fault schedule: an
// injector is built from the plan and attached to the mesh, every
// core's scratchpads, DMA engine, and translator, and SECDED ECC is
// enabled on physical memory (detection must be armed before damage
// arrives). Installing an empty plan still enables ECC but schedules
// nothing — simulated timing is bit-identical to an uninstrumented
// run, which TestZeroFaultDeterminism pins down.
func (s *System) InstallFaultPlan(p fault.Plan) {
	s.inj = fault.NewInjector(p, s.soc.Stats)
	s.soc.NPU.AttachInjector(s.inj)
	s.inj.AttachTrace(s.obs.Trace())
	s.soc.Phys.EnableECC(s.soc.Stats)
}

// Injector exposes the armed injector (nil before InstallFaultPlan).
func (s *System) Injector() *fault.Injector { return s.inj }

// SecureRunReport is an InferenceResult plus recovery accounting.
type SecureRunReport struct {
	InferenceResult
	// Faults is how many scheduled faults fired during the run.
	Faults int64
	// Restarts counts checkpoint restarts after fail-closed aborts.
	Restarts int
	// Remaps counts migrations off a persistently hanging core.
	Remaps int
	// Aborted is true when the task was abandoned (Err returned).
	Aborted bool
}

// RunSecureResilient is RunSecure with the Monitor's recovery policy:
// detection failures below (uncorrectable ECC, exhausted NoC retries,
// scratchpad parity, wedged cores) abort the task fail-closed, then
// the run resubmits and restarts from the last completed layer
// boundary, remapping off a core that hangs twice in a row. The
// restart budget (three) counts consecutive failures without checkpoint
// progress — a crash-loop detector, not a lifetime cap — and once spent
// the task is abandoned and the caller sees only ErrTaskAborted.
func (s *System) RunSecureResilient(h *SecureTaskHandle) (SecureRunReport, error) {
	return s.runSecure(h, restartBudget)
}

// runSecure is the one secure runner: FnLoad, layer slices, FnUnload;
// on a failure FnAbort, then — while fewer than maxRestarts
// consecutive failures made no checkpoint progress — resubmit, pay the
// restore and retry from the checkpoint. Past the budget it gives up
// with ErrTaskAborted. A handle from before the last Reset is refused
// (System.resets).
func (s *System) runSecure(h *SecureTaskHandle, maxRestarts int) (rep SecureRunReport, err error) {
	if s.mon == nil {
		return rep, fmt.Errorf("snpu: baseline system has no monitor")
	}
	if h.resets != s.resets {
		return rep, monitor.ErrUnknownTask
	}
	s.soc.NPU.ResetTiming()
	injectedBefore := s.inj.Injected()
	spadLines := s.cfg.NPU.SpadLines()
	prog := h.prog

	core := 0
	checkpoint := 0 // first layer not yet completed
	lastHangCore := -1
	consecutive := 0 // failures since the checkpoint last advanced
	var now sim.Cycle
	// Recovery actions land on the observability timeline (nil-safe
	// no-op sink when observability is off); each restart attempt opens
	// a new trace epoch so the attempts stack as parallel tracks.
	rec := s.obs.Trace()
	defer func() {
		rep.Faults = s.inj.Injected() - injectedBefore
	}()

	for {
		lrep := s.mon.Dispatch(monitor.Call{
			Func: monitor.FnLoad,
			Args: []uint64{uint64(h.ID), 0, uint64(spadLines), uint64(core)},
		})
		if lrep.Err != nil {
			return rep, lrep.Err
		}
		c, err := s.soc.NPU.Core(core)
		if err != nil {
			return rep, err
		}
		ex := npu.NewExec(c, prog, h.ID+10000)
		ex.SkipToLayer(checkpoint)

		// Run layer by layer so the last completed layer boundary is
		// always known — that boundary is the checkpoint. Only the
		// attempt's first slice waits for now (a hang's detection or the
		// restore flush); later slices start at 0 so the double-buffered
		// pipeline keeps running across layer boundaries.
		boundary := npu.BoundaryLayers(1)
		from := now
		var runErr error
		for !ex.Done() {
			var done sim.Cycle
			done, runErr = ex.RunUntil(from, boundary)
			if runErr != nil {
				break
			}
			now, from = done, 0
			if ex.CurrentLayer() > checkpoint {
				checkpoint = ex.CurrentLayer()
				consecutive = 0 // forward progress resets the crash-loop budget
			}
		}

		if runErr == nil {
			if urep := s.mon.Dispatch(monitor.Call{Func: monitor.FnUnload, Args: []uint64{uint64(h.ID)}}); urep.Err != nil {
				return rep, urep.Err
			}
			rep.InferenceResult = s.result(prog, now)
			if s.inj.Injected() > injectedBefore {
				s.soc.Stats.Inc(sim.CtrRecoveredFaults)
			}
			return rep, nil
		}

		// Something below gave up: escalate to the Monitor. Abort is
		// fail-closed — scratchpads scrubbed, Guarder cleared, model and
		// chunk zeroed — regardless of what we do next.
		var hang *npu.HangError
		if errors.As(runErr, &hang) {
			now = hang.Detected // the watchdog is what notices a hang
		}
		if arep := s.mon.Dispatch(monitor.Call{Func: monitor.FnAbort, Args: []uint64{uint64(h.ID)}}); arep.Err != nil {
			return rep, arep.Err
		}
		rec.Record(trace.Event{
			Name: "monitor.abort", Kind: trace.KindMonitor, Core: core,
			Start: now, End: now,
		})

		if consecutive >= maxRestarts {
			rep.Aborted = true
			rep.Cycles = now // cycles burned before giving up
			s.soc.Stats.Inc(sim.CtrUnrecoveredFaults)
			return rep, ErrTaskAborted
		}
		consecutive++
		rep.Restarts++
		s.soc.Stats.Inc(sim.CtrTaskRestarts)
		rec.BeginEpoch(fmt.Sprintf("restart-%d", rep.Restarts), now)

		// A core that hangs twice in a row is unhealthy: remap. The
		// untrusted driver may do this freely — it only ever sees an
		// opaque failure and a new core assignment.
		if hang != nil {
			if hang.Core == lastHangCore {
				core = (core + 1) % s.cfg.NPU.Tiles
				rep.Remaps++
			}
			lastHangCore = hang.Core
		}

		// Restart from the checkpoint: resubmit through the full
		// verification path (measurement, unsealing, allocation), then
		// pay the restore cost of the checkpointed accumulator state.
		srep := s.mon.Dispatch(monitor.Call{
			Func:     monitor.FnSubmit,
			Shared:   h.sealed,
			Program:  prog,
			Expected: prog.OwnerMeasurement(),
			KeyID:    h.keyID,
		})
		if srep.Err != nil {
			return rep, srep.Err
		}
		h.ID = int(srep.Value)
		restoreFrom := now
		now += spad.FlushCost(npu.FlushLiveBytes(prog), s.cfg.NPU.DRAMBytesPerCycle, s.cfg.NPU.DRAMLatency, s.soc.Stats)
		rec.Record(trace.Event{
			Name: "monitor.restore", Kind: trace.KindMonitor, Core: core,
			Start: restoreFrom, End: now,
		})
	}
}
