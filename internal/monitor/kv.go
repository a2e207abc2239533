package monitor

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/spad"
)

// KV-cache residency (§IV-B applied to a serving-shaped secret): a
// decode task's cached K/V vectors are tenant secrets that must stay
// resident across scheduler slices, so they cannot live in the lines
// the flush-on-switch scrubs. The monitor instead carves per-task KV
// windows out of a reserved scratchpad partition (the top quarter of
// the wordlines), claims them with a per-task domain tag >= 2 via the
// Claim secure instruction, and backs the full cache with a chunk of
// secure memory. The ID-bit rules then do the isolation work the flush
// used to do: a window tagged with task A's KV domain is unreadable by
// the normal world, by the generic secure domain, and by every other
// task's KV domain — so preemption may leave it in place untouched.
// Only the owner's FnUnload/FnAbort scrubs it (ResetSecure + DRAM
// zero), and the context-switch scrub walks *around* live KV windows
// so no task can destroy another's cache.

// Errors of the KV-residency path.
var (
	ErrKVExhausted = errors.New("monitor: kv partition exhausted")
	ErrKVConfig    = errors.New("monitor: ID state too narrow for kv domains")
	ErrKVDup       = errors.New("monitor: task already holds a kv region on this core")
)

// Transition bits of the KV state machine (see the Tr* block in
// monitor.go; these continue it).
const (
	TrKVAlloc   = 31 // kv window claimed for a loaded task
	TrKVRefused = 32 // kv allocation refused
	TrKVScrub   = 33 // kv window scrubbed on unload/abort
)

// KVRegion is one resident KV-cache window: a claimed scratchpad line
// range on one core, tagged with the task's private KV domain, plus
// the secure-memory chunk backing the full cache.
type KVRegion struct {
	Task   int
	Core   int
	Domain spad.DomainID
	// From/To is the claimed wordline window [From, To).
	From, To int
	// Chunk/Bytes is the DRAM backing store in secure memory.
	Chunk mem.PhysAddr
	Bytes uint64
}

// Lines is the window's wordline count.
func (r KVRegion) Lines() int { return r.To - r.From }

// kvPartitionStart is the first wordline of the KV partition: the top
// quarter of the scratchpad is reserved for resident caches.
func kvPartitionStart(totalLines int) int { return totalLines - totalLines/4 }

// kvOnCore returns the live KV windows on one core, ordered by window
// start (insertion order is creation order; sorting by From makes the
// first-fit and scrub walks independent of it).
func (m *Monitor) kvOnCore(core int) []*KVRegion {
	var out []*KVRegion
	for _, r := range m.kv {
		if r.Core == core {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].From < out[j].From })
	return out
}

// kvAlloc claims a resident KV window for a loaded task: `lines`
// wordlines in core `coreID`'s KV partition, tagged with a fresh
// per-task domain, plus `bytes` of secure memory backing the full
// cache. It is the monitor-mediated allocation path — the untrusted
// scheduler asks via the trampoline (FnKVAlloc) and learns only the
// assigned domain; refusals carry no detail beyond the failing check.
func (m *Monitor) kvAlloc(taskID, coreID, lines int, bytes uint64) (spad.DomainID, error) {
	task, ok := m.tasks[taskID]
	if !ok {
		m.note(TrKVRefused)
		return 0, m.reject(ErrUnknownTask)
	}
	if !task.Loaded {
		m.note(TrKVRefused)
		return 0, m.reject(fmt.Errorf("monitor: task %d is not loaded", taskID))
	}
	onCore := false
	for _, ci := range task.Cores {
		if ci == coreID {
			onCore = true
			break
		}
	}
	if !onCore {
		m.note(TrKVRefused)
		return 0, m.reject(fmt.Errorf("monitor: task %d is not loaded on core %d", taskID, coreID))
	}
	if lines <= 0 || bytes == 0 {
		m.note(TrKVRefused)
		return 0, m.reject(fmt.Errorf("monitor: bad kv request (%d lines, %d bytes)", lines, bytes))
	}
	core, err := m.acc.Core(coreID)
	if err != nil {
		m.note(TrKVRefused)
		return 0, m.reject(err)
	}
	sp := core.Scratchpad()

	// One window per (task, core): the cache grows in place.
	existing := m.kvOnCore(coreID)
	for _, r := range existing {
		if r.Task == taskID {
			m.note(TrKVRefused)
			return 0, m.reject(ErrKVDup)
		}
	}

	// A fresh per-task domain >= 2 (0 = normal world, 1 = the generic
	// secure domain the flush rules govern). The ID width bounds how
	// many caches one core can host.
	maxDomain := spad.DomainID(1<<sp.Config().IDBits - 1)
	if maxDomain < 2 {
		m.note(TrKVRefused)
		return 0, m.reject(ErrKVConfig)
	}
	var domain spad.DomainID
	for d := spad.DomainID(2); d <= maxDomain; d++ {
		used := false
		for _, r := range existing {
			if r.Domain == d {
				used = true
				break
			}
		}
		if !used {
			domain = d
			break
		}
	}
	if domain == 0 {
		m.note(TrKVRefused)
		return 0, m.reject(ErrKVExhausted)
	}

	// First-fit window inside the KV partition, avoiding live windows.
	total := sp.Lines()
	from := kvPartitionStart(total)
	for _, r := range existing {
		if from+lines <= r.From {
			break
		}
		if r.To > from {
			from = r.To
		}
	}
	if from+lines > total {
		m.note(TrKVRefused)
		return 0, m.reject(ErrKVExhausted)
	}

	// DRAM backing for the full cache, from the trusted allocator.
	chunk, err := m.alloc.Alloc(uint64(mem.PageAlignUp(mem.PhysAddr(bytes))), mem.PageSize)
	if err != nil {
		m.note(TrKVRefused)
		return 0, m.reject(err)
	}
	if err := sp.Claim(m.ctx, from, from+lines, domain); err != nil {
		_ = m.alloc.Free(chunk)
		m.note(TrKVRefused)
		return 0, m.reject(err)
	}
	m.kv = append(m.kv, &KVRegion{
		Task: taskID, Core: coreID, Domain: domain,
		From: from, To: from + lines, Chunk: chunk, Bytes: bytes,
	})
	m.note(TrKVAlloc)
	return domain, nil
}

// releaseKV scrubs and frees every KV window a task owns: the window's
// lines are zeroed and returned to the normal world, the DRAM backing
// is wiped before the chunk becomes allocatable again, and the task's
// KV domain is retired. This is the §IV-B flush contract applied to
// the cache — it runs only on the owner's unload/abort, never on a
// context switch.
func (m *Monitor) releaseKV(taskID int) error {
	kept := m.kv[:0]
	for _, r := range m.kv {
		if r.Task != taskID {
			kept = append(kept, r)
			continue
		}
		core, err := m.acc.Core(r.Core)
		if err != nil {
			return err
		}
		if err := core.Scratchpad().ResetSecure(m.ctx, r.From, r.To); err != nil {
			return err
		}
		m.machine.Phys().Zero(r.Chunk, uint64(mem.PageAlignUp(mem.PhysAddr(r.Bytes))))
		if err := m.alloc.Free(r.Chunk); err != nil {
			return err
		}
		m.note(TrKVScrub)
	}
	m.kv = kept
	return nil
}

// scrubSpadAround is the context-switch scratchpad scrub: ResetSecure
// over [from, to) on one core's scratchpad, stepping around every live
// KV window so resident caches — the evicted task's own and everyone
// else's — survive the switch. Their isolation does not depend on this
// walk: the windows stay tagged with private KV domains the §IV-B read
// rules already refuse.
func (m *Monitor) scrubSpadAround(sp *spad.Scratchpad, coreID, from, to int) error {
	cur := from
	for _, r := range m.kvOnCore(coreID) {
		if r.To <= cur || r.From >= to {
			continue
		}
		if r.From > cur {
			if err := sp.ResetSecure(m.ctx, cur, r.From); err != nil {
				return err
			}
		}
		if r.To > cur {
			cur = r.To
		}
	}
	if cur < to {
		return sp.ResetSecure(m.ctx, cur, to)
	}
	return nil
}

// KVRegions returns a snapshot of every live KV window (creation
// order). Tests and observability only; mutating the copies changes
// nothing.
func (m *Monitor) KVRegions() []KVRegion {
	out := make([]KVRegion, 0, len(m.kv))
	for _, r := range m.kv {
		out = append(out, *r)
	}
	return out
}

// KVRegionFor returns the task's KV window on one core.
func (m *Monitor) KVRegionFor(taskID, coreID int) (KVRegion, bool) {
	for _, r := range m.kv {
		if r.Task == taskID && r.Core == coreID {
			return *r, true
		}
	}
	return KVRegion{}, false
}
