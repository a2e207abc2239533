package driver

import (
	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/spad"
)

// This file quantifies Table I's SLA column: how long a high-priority
// (secure) task waits before it starts computing when it arrives while
// a low-priority task occupies the core. The scheduler can only switch
// at its boundary granularity, and flushing mechanisms additionally
// pay the save/restore before the newcomer may touch the scratchpad —
// coarse flushing is cheap per Fig. 14 but cannot preempt in time,
// which is exactly the trade-off the paper describes.

// PreemptionResult reports one preemption probe.
type PreemptionResult struct {
	// ArrivalCycle is when the high-priority task became runnable.
	ArrivalCycle sim.Cycle
	// StartCycle is the first cycle it may run on the core.
	StartCycle sim.Cycle
}

// Latency is the SLA metric: arrival-to-start delay.
func (r PreemptionResult) Latency() sim.Cycle { return r.StartCycle - r.ArrivalCycle }

// MeasurePreemption runs `low` on the core, lets a high-priority task
// arrive at the given cycle, and reports when that task could start.
// The scheduler honours the boundary granularity (gran) and pays the
// flush when flush is true; sNPU's ID isolation is tile boundaries with
// no flush.
func (d *Driver) MeasurePreemption(core *npu.Core, low *Task, arrival sim.Cycle, gran spad.FlushGranularity, flush bool) (PreemptionResult, error) {
	lowExec := npu.NewExec(core, low.Program, low.ID)
	bound := boundaryFor(gran)
	var now sim.Cycle
	for !lowExec.Done() && now < arrival {
		// As in RunTimeShared: with ID isolation slices queue behind
		// the pipeline without draining; flushing clamps to the
		// post-drain point.
		from := sim.Cycle(0)
		if flush {
			from = now
		}
		end, err := lowExec.RunUntil(from, bound)
		if err != nil {
			return PreemptionResult{}, err
		}
		now = end
	}
	// now is the first boundary at (or after) the arrival — the
	// earliest legal switch point. If the low task finished before the
	// arrival, the core is simply idle until then.
	start := now
	if start < arrival {
		start = arrival
	}
	if flush && !lowExec.Done() {
		start += spad.FlushCost(npu.FlushLiveBytes(low.Program),
			d.cfg.DRAMBytesPerCycle, d.cfg.DRAMLatency, d.stats)
	}
	d.stats.Inc(sim.CtrCtxSwitches)
	return PreemptionResult{ArrivalCycle: arrival, StartCycle: start}, nil
}
