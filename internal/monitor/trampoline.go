package monitor

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/isolator"
	"repro/internal/mem"
	"repro/internal/npu"
	"repro/internal/sim"
)

// The trampoline is the narrow interface between the non-secure NPU
// driver and the NPU Monitor (§V): a function ID, arguments, and a
// shared-memory payload. The driver marshals a call; the monitor-side
// dispatcher validates and executes it. FnSubmit is the one way a
// secure task enters: the monitor measures the op stream it is handed
// and keeps only what it derives from those ops, never a pointer into
// driver memory. Keeping the boundary to plain data (no callbacks, one
// submit format) is what keeps the TCB small.

// FuncID selects the monitor entry point.
type FuncID uint32

const (
	// FnSubmit submits a secure task spec for verification.
	FnSubmit FuncID = iota + 1
	// FnLoad loads a verified task onto cores.
	FnLoad
	// FnUnload tears a task down.
	FnUnload
	// FnQueueLen queries the secure queue depth.
	FnQueueLen
	// FnMapNonSecure programs a translation window for a non-secure
	// task (args: core, slot, vbase, pbase, size).
	FnMapNonSecure
	_ // ID 6 stays unassigned, so the IDs after it keep their values.
	// FnAbort fail-closed-aborts a secure task (scrub + teardown).
	FnAbort
	// FnPreempt evicts a loaded task with the mandatory flush and
	// ID-bit reassignment, keeping it resident for a later FnLoad.
	FnPreempt
	// FnKVAlloc claims a resident KV-cache window for a loaded task
	// (args: taskID, core, lines, bytes); Reply.Value is the assigned
	// KV domain. NOTE: outside the generic coverage-bit range
	// [FnSubmit, FnPreempt] — KV outcomes land on the semantic TrKV*
	// bits instead (kv.go).
	FnKVAlloc
)

func (f FuncID) String() string {
	switch f {
	case FnSubmit:
		return "submit"
	case FnLoad:
		return "load"
	case FnUnload:
		return "unload"
	case FnQueueLen:
		return "queue-len"
	case FnMapNonSecure:
		return "map-nonsecure"
	case FnAbort:
		return "abort"
	case FnPreempt:
		return "preempt"
	case FnKVAlloc:
		return "kv-alloc"
	default:
		return fmt.Sprintf("func(%d)", uint32(f))
	}
}

// Call is one trampoline invocation. Args carries small scalars;
// Shared carries the bulk payload (the sealed model for FnSubmit). The
// submit-only fields carry what FnSubmit verifies (in hardware they sit
// in the shared buffer too — we keep them typed for clarity).
type Call struct {
	Func   FuncID
	Args   []uint64
	Shared []byte
	// Submit-only fields.
	Program  *npu.Program
	Expected [sha256.Size]byte
	KeyID    string
	Topology isolator.Topology
}

// Reply is the monitor's answer.
type Reply struct {
	Value uint64
	Err   error
}

// Dispatch executes one trampoline call against the monitor. It is
// the one way code outside the monitor changes the monitor's state:
// submit, load, unload, abort, preempt, window mapping and KV claims
// are reachable only through it. Every call counts once in
// monitor.calls and every refused call once in monitor.rejected, a
// malformed one (unknown function ID, too few Args) included. Every
// call lands one outcome bit in the transition-coverage bitmap: bit
// 2*(f-1) for FuncID f returning ok, bit 2*(f-1)+1 for f returning an
// error.
func (m *Monitor) Dispatch(c Call) Reply {
	m.stats.Inc(sim.CtrMonitorCalls)
	rep := m.dispatch(c)
	if c.Func >= FnSubmit && c.Func <= FnPreempt {
		bit := uint(2 * (c.Func - FnSubmit))
		if rep.Err != nil {
			bit++
		}
		m.note(bit)
	}
	return rep
}

func (m *Monitor) dispatch(c Call) Reply {
	switch c.Func {
	case FnSubmit:
		id, err := m.submit(c)
		return Reply{Value: uint64(id), Err: err}
	case FnLoad:
		if len(c.Args) < 3 {
			return Reply{Err: m.reject(fmt.Errorf("monitor: load needs taskID, spadFrom, spadTo"))}
		}
		taskID := int(c.Args[0])
		spadFrom := int(c.Args[1])
		spadTo := int(c.Args[2])
		cores := make([]int, 0, len(c.Args)-3)
		for _, a := range c.Args[3:] {
			cores = append(cores, int(a))
		}
		return Reply{Err: m.load(taskID, cores, spadFrom, spadTo)}
	case FnUnload:
		if len(c.Args) < 1 {
			return Reply{Err: m.reject(fmt.Errorf("monitor: unload needs taskID"))}
		}
		return Reply{Err: m.unload(int(c.Args[0]))}
	case FnAbort:
		if len(c.Args) < 1 {
			return Reply{Err: m.reject(fmt.Errorf("monitor: abort needs taskID"))}
		}
		return Reply{Err: m.abort(int(c.Args[0]))}
	case FnPreempt:
		if len(c.Args) < 1 {
			return Reply{Err: m.reject(fmt.Errorf("monitor: preempt needs taskID"))}
		}
		return Reply{Err: m.preempt(int(c.Args[0]))}
	case FnKVAlloc:
		if len(c.Args) < 4 {
			return Reply{Err: m.reject(fmt.Errorf("monitor: kv-alloc needs taskID, core, lines, bytes"))}
		}
		d, err := m.kvAlloc(int(c.Args[0]), int(c.Args[1]), int(c.Args[2]), c.Args[3])
		return Reply{Value: uint64(d), Err: err}
	case FnQueueLen:
		return Reply{Value: uint64(m.QueueLen())}
	case FnMapNonSecure:
		if len(c.Args) < 5 {
			return Reply{Err: m.reject(fmt.Errorf("monitor: map-nonsecure needs core, slot, vbase, pbase, size"))}
		}
		return Reply{Err: m.mapNonSecure(int(c.Args[0]), int(c.Args[1]),
			mem.VirtAddr(c.Args[2]), mem.PhysAddr(c.Args[3]), c.Args[4])}
	default:
		return Reply{Err: m.reject(ErrBadFunc)}
	}
}
