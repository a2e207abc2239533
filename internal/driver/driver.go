// Package driver is the *untrusted* NPU software stack: it allocates
// DMA buffer chunks from NPU-reserved memory (the ION/CMA analogue),
// compiles workloads into op streams, maps them for the access-control
// hardware, and schedules tasks onto cores — time-shared at op-kernel
// granularity or spatially across cores.
//
// Nothing in this package is in the TCB (the untrusted software of
// the paper's §III threat model). Secure tasks flow through the
// NPU Monitor (internal/monitor) instead; the driver merely transports
// them (the trampoline's untrusted end).
package driver

import (
	"fmt"

	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/spad"
	"repro/internal/workload"
)

// Task is one submitted inference job.
type Task struct {
	ID      int
	Model   workload.Workload
	Program *npu.Program
	Secure  bool
	// Chunk is the task's DMA buffer in NPU-reserved memory.
	Chunk     mem.PhysAddr
	ChunkSize uint64
}

// Driver is the untrusted NPU driver instance.
type Driver struct {
	cfg      npu.Config
	reserved *mem.ContigAlloc
	nextID   int
	stats    *sim.Stats
}

// New builds a driver over the NPU-reserved memory range.
func New(cfg npu.Config, reservedBase mem.PhysAddr, reservedSize uint64, stats *sim.Stats) *Driver {
	return &Driver{
		cfg:      cfg,
		reserved: mem.NewContigAlloc(reservedBase, reservedSize),
		nextID:   1,
		stats:    stats,
	}
}

// Reset returns the driver to its freshly constructed state: the
// reserved-memory allocator is emptied and task IDs restart at 1, so
// a recycled System submits tasks with the same IDs, layouts, and
// chunk addresses a fresh boot would — the determinism half of the
// pooling contract.
func (d *Driver) Reset() {
	d.reserved.Reset()
	d.nextID = 1
}

// Reserved exposes the reserved-memory allocator.
func (d *Driver) Reserved() *mem.ContigAlloc { return d.reserved }

// Submit compiles a workload under the given scratchpad budget (0 =
// whole scratchpad) and allocates its DMA chunk. Each task gets its
// own IOVA range (layoutFor), so tasks mapped side by side on one core
// never alias in the access-control hardware.
func (d *Driver) Submit(w workload.Workload, spadBudget int, secure bool) (*Task, error) {
	prog, _, err := npu.CompileCached(w, d.cfg, spadBudget, layoutFor(d.nextID))
	if err != nil {
		return nil, err
	}
	return d.SubmitProgram(w, prog, secure)
}

// Release frees a task's chunk.
func (d *Driver) Release(t *Task) error {
	return d.reserved.Free(t.Chunk)
}

// layoutFor is the VA layout Submit compiles task `id` under: each id
// gets its own 4 GiB-apart IOVA range, so co-resident tasks (a
// time-shared pair, the SLA probe's tenants) can hold their windows
// side by side.
func layoutFor(id int) npu.Layout {
	return npu.Layout{WeightBase: npu.DefaultLayout.WeightBase + mem.VirtAddr(uint64(id)<<32)}
}

// SubmitProgram registers an already compiled program as a task,
// allocating only its DMA chunk. The caller owns the VA span: a task
// whose window is the only one mapped on its core (a scheduler job, a
// solo run) compiles at npu.DefaultLayout and shares that compile with
// every other request for the model; tasks mapped side by side need
// distinct spans, which Submit gives them.
func (d *Driver) SubmitProgram(w workload.Workload, prog *npu.Program, secure bool) (*Task, error) {
	_, size := mem.PageWindow(prog.VASpan())
	chunk, err := d.reserved.Alloc(size, mem.PageSize)
	if err != nil {
		return nil, fmt.Errorf("driver: allocating %d-byte chunk: %w", size, err)
	}
	t := &Task{
		ID:        d.nextID,
		Model:     w,
		Program:   prog,
		Secure:    secure,
		Chunk:     chunk,
		ChunkSize: size,
	}
	d.nextID++
	return t, nil
}

// MapTask installs the IOMMU mappings for a task's VA span onto its
// chunk (the TrustZone-NPU path; with a Guarder, the monitor's context
// setter programs translation registers instead).
func (d *Driver) MapTask(u *iommu.IOMMU, t *Task) error {
	base, _ := mem.PageWindow(t.Program.VASpan())
	return u.Table().MapRange(base, t.Chunk, t.ChunkSize, mem.PermRW, t.Secure)
}

// TimeShareResult reports a time-shared run.
type TimeShareResult struct {
	// Finish[i] is the cycle task i's program completed.
	Finish []sim.Cycle
	// Switches is the number of context switches taken.
	Switches int
	// FlushCycles is the total cycles spent saving/restoring
	// scratchpad context across switches.
	FlushCycles sim.Cycle
}

// Makespan is the last finish time.
func (r TimeShareResult) Makespan() sim.Cycle {
	var m sim.Cycle
	for _, f := range r.Finish {
		if f > m {
			m = f
		}
	}
	return m
}

// RunTimeShared round-robins the tasks on one core, switching at the
// given granularity and — when flush is true — paying the
// save/restore cost of each switch (Fig. 14). flush=false at the same
// granularity is sNPU's ID-isolated sharing: switches still happen,
// but no scrubbing is needed for security, so they cost nothing.
// gran == FlushNone selects tile-granularity switching with no flush
// regardless of the flag.
func (d *Driver) RunTimeShared(core *npu.Core, tasks []*Task, gran spad.FlushGranularity, flush bool) (TimeShareResult, error) {
	if gran == spad.FlushNone {
		flush = false
	}
	if len(tasks) == 0 {
		return TimeShareResult{}, fmt.Errorf("driver: no tasks")
	}
	execs := make([]*npu.Exec, len(tasks))
	bounds := make([]npu.Boundary, len(tasks))
	for i, t := range tasks {
		execs[i] = npu.NewExec(core, t.Program, t.ID)
		bounds[i] = boundaryFor(gran)
	}
	res := TimeShareResult{Finish: make([]sim.Cycle, len(tasks))}
	var now sim.Cycle
	remaining := len(tasks)
	cur := 0
	for remaining > 0 {
		if execs[cur].Done() {
			cur = (cur + 1) % len(tasks)
			continue
		}
		// Without flushing (sNPU's ID isolation) a switch needs no
		// pipeline drain: the incoming task's ops simply queue behind
		// the core's in-flight work, so the slice starts unclamped.
		// With flushing the core must drain and scrub first, so the
		// slice resumes no earlier than the post-flush cycle.
		from := sim.Cycle(0)
		if flush {
			from = now
		}
		end, err := execs[cur].RunUntil(from, bounds[cur])
		if err != nil {
			return TimeShareResult{}, err
		}
		now = end
		if execs[cur].Done() {
			res.Finish[cur] = now
			remaining--
		}
		// Switch to the next runnable task, paying the flush.
		next := nextRunnable(execs, cur)
		if next != cur && next >= 0 {
			if flush {
				cost := spad.FlushCost(npu.FlushLiveBytes(tasks[cur].Program),
					d.cfg.DRAMBytesPerCycle, d.cfg.DRAMLatency, d.stats)
				now += cost
				res.FlushCycles += cost
			}
			res.Switches++
			d.stats.Inc(sim.CtrCtxSwitches)
			cur = next
		}
	}
	return res, nil
}

func boundaryFor(gran spad.FlushGranularity) npu.Boundary {
	switch gran {
	case spad.FlushPerLayer:
		return npu.BoundaryLayers(1)
	case spad.FlushPer5Layers:
		return npu.BoundaryLayers(5)
	default: // tile granularity, also used for FlushNone
		return npu.BoundaryTile
	}
}

func nextRunnable(execs []*npu.Exec, cur int) int {
	for off := 1; off <= len(execs); off++ {
		i := (cur + off) % len(execs)
		if !execs[i].Done() {
			return i
		}
	}
	if !execs[cur].Done() {
		return cur
	}
	return -1
}
