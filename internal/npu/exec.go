package npu

import (
	"fmt"

	"repro/internal/dma"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// HangError reports a wedged core caught by the per-core watchdog.
// Detected is the cycle the watchdog fired; the task makes no progress
// after the hang, so recovery (abort, restart, remap) resumes from
// Detected.
type HangError struct {
	Core     int
	Detected sim.Cycle
}

func (e *HangError) Error() string {
	return fmt.Sprintf("npu: core %d hung (watchdog fired at cycle %d)", e.Core, e.Detected)
}

// Exec runs one Program on one Core with the double-buffered pipeline
// a Gemmini-style NPU has: mvin traffic for tile i+1 overlaps the
// matmul of tile i, bounded by the two scratchpad buffers, while
// mvout drains through a write buffer without blocking loads.
//
// Exec is resumable: RunUntil executes ops until a scheduling boundary
// so an (untrusted) driver can time-share a core between tasks at
// op-kernel granularity.
type Exec struct {
	core *Core
	prog *Program
	cur  *Cursor

	pendingLoads []dma.Request
	// storeReq is the reusable single-descriptor batch for mvout ops:
	// stores issue one at a time, and building a fresh slice per store
	// was a per-tile heap allocation on the hot path.
	storeReq [1]dma.Request
	taskID   int

	// rec, when non-nil (the core's observer records spans), records
	// every compute tile as a timeline event. Loads and stores land on
	// the timeline from the DMA engine that serves them.
	rec *trace.Recorder

	// Totals for reporting.
	ComputeBusy sim.Cycle
	Stalls      sim.Cycle
}

// NewExec binds a program to a core. taskID feeds the translator's
// context-switch detection. When the core carries an observer that
// records spans, the executor's spans land on the observer's timeline.
func NewExec(core *Core, prog *Program, taskID int) *Exec {
	return &Exec{core: core, prog: prog, cur: prog.Cursor(), taskID: taskID, rec: core.obs.Trace()}
}

// Done reports whether the whole program has executed.
func (e *Exec) Done() bool { return e.cur.Done() }

// Program returns the bound program.
func (e *Exec) Program() *Program { return e.prog }

// CurrentLayer reports the layer of the next op (or the last layer
// when done).
func (e *Exec) CurrentLayer() int {
	if e.Done() {
		return e.prog.Layers - 1
	}
	return e.cur.peek().Layer
}

// Boundary decides where RunUntil stops: it is consulted after each
// op-kernel (compute op) with the op just retired.
type Boundary func(op Op) bool

// BoundaryNone never stops (run to completion).
func BoundaryNone(Op) bool { return false }

// BoundaryTile stops after every tile (op-kernel).
func BoundaryTile(op Op) bool { return op.Tile }

// BoundaryLayers stops when n layers have retired since the last
// stop. The counter resets each time the boundary fires, so the same
// closure paces an entire time-shared run.
func BoundaryLayers(n int) Boundary {
	last := -1
	count := 0
	return func(op Op) bool {
		if op.Layer != last {
			if last >= 0 {
				count++
			}
			last = op.Layer
		}
		if count >= n {
			count = 0
			return true
		}
		return false
	}
}

// Suspend clamps the core's pipeline state to `at` so work never
// claims the units earlier than the slice's start (e.g., after a
// flush inserted by the scheduler).
func (e *Exec) Suspend(at sim.Cycle) {
	e.core.pipe.clampTo(at)
}

// RunUntil executes ops starting no earlier than `from` until the
// boundary fires or the program ends. It returns the cycle at which
// the executed slice's work fully retires.
func (e *Exec) RunUntil(from sim.Cycle, boundary Boundary) (sim.Cycle, error) {
	e.Suspend(from)
	e.core.dmaEng.Translator().OnContextSwitch(e.taskID)
	world := e.core.World()
	// The cursor's Next, read in place: copying each op out costs more
	// than the rest of a load's handling here.
	c := e.cur
	for !c.Done() {
		op := &c.buf[c.i]
		c.i++
		switch op.Kind {
		case OpLoad:
			e.pendingLoads = append(e.pendingLoads, dma.Request{})
			req := &e.pendingLoads[len(e.pendingLoads)-1]
			req.VA, req.Bytes, req.Dir, req.World, req.TaskID = op.VA, op.Bytes, dma.ToScratchpad, world, e.taskID
		case OpCompute:
			// Issue the accumulated loads for this tile; they may not
			// start before the buffer from two tiles ago was released.
			pipe := &e.core.pipe
			issueAt := pipe.dmaFree
			if issueAt < pipe.prevComputeEnd[0] {
				issueAt = pipe.prevComputeEnd[0]
			}
			loadsDone, err := e.core.dmaEng.DoPipelined(e.pendingLoads, nil, e.core.domain, issueAt)
			if err != nil {
				return 0, fmt.Errorf("npu: core %d: %w", e.core.id, err)
			}
			e.pendingLoads = e.pendingLoads[:0]
			pipe.dmaFree = loadsDone
			start := loadsDone
			if start < pipe.computeFree {
				start = pipe.computeFree
			}
			e.Stalls += start - pipe.computeFree
			end := start + op.Cycles
			e.rec.Record(trace.Event{
				Name: "matmul", Kind: trace.KindCompute, Core: e.core.id,
				Start: start, End: end,
			})
			pipe.computeFree = end
			e.ComputeBusy += op.Cycles
			e.core.stats.AddCell(&e.core.ctrMACs, sim.CtrComputeMACs, op.MACs)
			e.core.stats.AddCell(&e.core.ctrComputeCycles, sim.CtrComputeCycles, int64(op.Cycles))
			if e.core.obsTile != nil {
				e.core.obsTile.Observe(int64(op.Cycles))
			}
			pipe.prevComputeEnd[0] = pipe.prevComputeEnd[1]
			pipe.prevComputeEnd[1] = end
			if e.core.inj.Enabled() {
				// Advance the injector's clock for untimed sites, then
				// check whether this tile wedges mid-op. The hang lands on
				// whichever core is executing when it comes due.
				e.core.inj.Observe(end)
				if _, ok := e.core.inj.Take(fault.CoreHang, end); ok {
					e.core.stats.Inc(sim.CtrCoreHangs)
					return 0, &HangError{Core: e.core.id, Detected: end + DefaultHangWatchdog}
				}
			}
			if boundary(*op) {
				return e.retire(), nil
			}
		case OpStore:
			// mvout drains after the producing compute, through the
			// write buffer, without stalling subsequent loads.
			at := e.core.pipe.computeFree
			if at < e.core.pipe.storeFree {
				at = e.core.pipe.storeFree
			}
			e.storeReq[0] = dma.Request{
				VA:     op.VA,
				Bytes:  op.Bytes,
				Dir:    dma.ToMemory,
				World:  world,
				TaskID: e.taskID,
			}
			done, err := e.core.dmaEng.DoPipelined(e.storeReq[:], nil, e.core.domain, at)
			if err != nil {
				return 0, fmt.Errorf("npu: core %d: %w", e.core.id, err)
			}
			e.core.pipe.storeFree = done
		default:
			return 0, fmt.Errorf("npu: unknown op kind %d", op.Kind)
		}
	}
	return e.retire(), nil
}

// retire reports when the core's in-flight work lands. With a shared
// core pipeline this includes any still-draining work queued by other
// tasks on the same core — the hardware cannot retire out of order.
func (e *Exec) retire() sim.Cycle {
	pipe := &e.core.pipe
	end := pipe.computeFree
	if pipe.storeFree > end {
		end = pipe.storeFree
	}
	if pipe.dmaFree > end {
		end = pipe.dmaFree
	}
	return end
}

// Run executes the whole program from cycle `from`.
func (e *Exec) Run(from sim.Cycle) (sim.Cycle, error) {
	return e.RunUntil(from, BoundaryNone)
}

// Interleave runs co-running executors one tile at a time, always the
// one whose clock now[i] lags furthest (the lowest index on a tie), so
// their claims on the shared DRAM channel interleave the way
// concurrently running hardware would instead of serializing whole
// programs. It runs while some executor that is not done satisfies in
// (nil admits every executor) and leaves each one's retire cycle in
// now.
func Interleave(execs []*Exec, now []sim.Cycle, in func(*Exec) bool) error {
	for {
		sel := -1
		for i, e := range execs {
			if !e.Done() && (in == nil || in(e)) && (sel < 0 || now[i] < now[sel]) {
				sel = i
			}
		}
		if sel < 0 {
			return nil
		}
		end, err := execs[sel].RunUntil(now[sel], BoundaryTile)
		if err != nil {
			return err
		}
		now[sel] = end
	}
}

// SkipToLayer advances past every op of layers below `layer` without
// executing them: checkpoint-restart re-enters the program at the last
// completed layer boundary, with earlier layers' outputs already in
// (checkpointed) DRAM.
func (e *Exec) SkipToLayer(layer int) {
	e.cur.skipTo(layer)
	e.pendingLoads = e.pendingLoads[:0]
}

// Utilization is the fraction of elapsed cycles the array did useful
// work at peak rate, the Fig. 1 metric.
func Utilization(prog *Program, elapsed sim.Cycle, dim int) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(prog.TotalMACs) / float64(int64(dim)*int64(dim)) / float64(elapsed)
}

// FlushLiveBytes reports what a context-switch flush must save and
// restore for this program. At an op-kernel boundary the input
// buffers are clean (re-fetchable from DRAM), so the dirty state is
// the accumulator's partial-sum tile.
func FlushLiveBytes(prog *Program) uint64 { return prog.AccTileBytes }
