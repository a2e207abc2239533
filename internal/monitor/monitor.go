package monitor

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/guarder"
	"repro/internal/isolator"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/spad"
	"repro/internal/tee"
)

// Errors the monitor returns to the untrusted side. They carry no
// secret-dependent detail beyond the failing check.
var (
	ErrNotBooted       = errors.New("monitor: machine has not completed secure boot")
	ErrBadMeasurement  = errors.New("monitor: code measurement mismatch")
	ErrUnknownTask     = errors.New("monitor: unknown secure task")
	ErrQueueEmpty      = errors.New("monitor: secure task queue empty")
	ErrBadFunc         = errors.New("monitor: unknown trampoline function")
	ErrOverlappingSpad = errors.New("monitor: scratchpad ranges overlap")
)

// secureTask is one verified task waiting in (or loaded from) the
// secure task queue.
type secureTask struct {
	ID int
	// Model is the decrypted model blob, held only in secure memory.
	model []byte
	// Chunk is the task's buffer in secure memory.
	Chunk     mem.PhysAddr
	ChunkSize uint64
	// Topology is the expected NoC arrangement for multi-core tasks.
	Topology isolator.Topology
	// Cores are the verified cores the task was loaded onto.
	Cores []int
	// SpadLines is the scratchpad range reserved per core.
	SpadLines [2]int
	Loaded    bool
	// spanLo and spanHi bound the VAs the measured ops touch, derived
	// at submit from those ops; load programs the Guarder from them.
	spanLo, spanHi mem.VirtAddr
	// measurement is the value the code verifier computed over those
	// ops and checked at submit; Attest quotes it.
	measurement tee.Measurement
}

// Transition bits for the monitor's state-transition coverage bitmap
// (TransitionBitmap). Bits 0..15 are set by the trampoline dispatcher:
// bit 2*(f-1) when FuncID f returned ok, bit 2*(f-1)+1 when it
// returned an error. Bits 16+ mark semantic transitions inside the
// monitor's task state machine; together they make the monitor's
// explored state space observable to the coverage-guided campaign
// harness (internal/campaign) without changing a single simulated
// cycle — the bitmap is passive, like the counters next to it.
const (
	TrSubmitVerified  = 16 // task verified and enqueued
	TrSubmitBadMeas   = 17 // submit refused: measurement mismatch
	TrSubmitNoSpace   = 18 // submit refused: secure allocator full
	TrLoadOK          = 19 // verified task loaded onto cores
	TrLoadBadRoute    = 20 // load refused: route-integrity check
	TrPreemptLoaded   = 21 // loaded task preempted (flush paid)
	TrPreemptRefused  = 22 // preempt refused: unknown/not loaded
	TrAbortLoaded     = 23 // fail-closed abort of a loaded task
	TrAbortQueued     = 24 // fail-closed abort of a queued task
	TrUnloadLoaded    = 25 // orderly unload of a loaded task
	TrUnloadQueued    = 26 // orderly unload of a queued task
	TrMapOK           = 27 // non-secure window programmed
	TrMapSecureTarget = 28 // map refused: window into secure memory
	TrKeyProvisioned  = 29 // sealing key installed
	TrUnsealFailed    = 30 // submit refused: sealed model failed to open
)

// Monitor is the trusted software module. Construction requires the
// secure context, so only boot-path code can create one.
type Monitor struct {
	ctx      tee.Context
	machine  *tee.Machine
	acc      *npu.NPU
	guarders map[int]*guarder.Guarder
	// trusted allocator over the secure memory region
	alloc *mem.ContigAlloc
	// provisioned sealing keys by key ID (attested-channel stand-in)
	keys map[string][]byte
	// secure task queue
	queue  []*secureTask
	tasks  map[int]*secureTask
	nextID int
	stats  *sim.Stats

	// kv tracks resident KV-cache windows (kv.go), creation order.
	kv []*KVRegion

	// transitions accumulates the state-transition coverage bitmap
	// (see the Tr* bit constants); read through TransitionBitmap.
	transitions uint64
}

// note sets one transition-coverage bit. Bits only accumulate; the
// bitmap over a monitor's lifetime records which corners of the task
// state machine were ever exercised.
func (m *Monitor) note(bit uint) {
	if bit < 64 {
		m.transitions |= 1 << bit
	}
}

// TransitionBitmap reports the accumulated state-transition coverage
// since boot: one bit per (trampoline function, outcome) pair plus the
// semantic Tr* transitions. The campaign fuzzer folds it into its
// coverage signal so exploring a new monitor transition is rewarded
// like exploring a new branch.
func (m *Monitor) TransitionBitmap() uint64 { return m.transitions }

// New builds the monitor. It refuses to run on a machine that has not
// completed secure boot (the boot chain loads and verifies the monitor
// itself before anything untrusted runs).
func New(machine *tee.Machine, acc *npu.NPU, guarders map[int]*guarder.Guarder, secureBase mem.PhysAddr, secureSize uint64, stats *sim.Stats) (*Monitor, error) {
	if !machine.Secured() {
		return nil, ErrNotBooted
	}
	return &Monitor{
		ctx:      machine.SecureContext(),
		machine:  machine,
		acc:      acc,
		guarders: guarders,
		alloc:    mem.NewContigAlloc(secureBase, secureSize),
		keys:     make(map[string][]byte),
		tasks:    make(map[int]*secureTask),
		nextID:   1,
		stats:    stats,
	}, nil
}

// Reset returns the monitor to its just-booted state for pooled
// System reuse: provisioned keys are destroyed, queued and tracked
// secure tasks are dropped, the trusted allocator releases every slot,
// task IDs restart at 1, and the transition-coverage bitmap clears.
// The caller must re-run SetupPlatform afterwards (System.Reset does)
// so the guarders' static checking windows are reprogrammed exactly as
// at boot. Counters live in the SoC's Stats, which its owner resets.
func (m *Monitor) Reset() {
	clear(m.keys)
	m.queue = nil
	clear(m.tasks)
	m.kv = nil
	m.nextID = 1
	m.transitions = 0
	m.alloc.Reset()
}

// ProvisionKey installs a model-sealing key. In a deployment this
// arrives over an attested channel rooted in the secure-boot report;
// here the model owner calls it directly against the monitor.
func (m *Monitor) ProvisionKey(keyID string, key []byte) error {
	if len(key) != KeySize {
		return fmt.Errorf("monitor: key %q must be %d bytes", keyID, KeySize)
	}
	k := make([]byte, KeySize)
	copy(k, key)
	m.keys[keyID] = k
	m.note(TrKeyProvisioned)
	return nil
}

// submit is the code-verifier + trusted-allocator path behind FnSubmit:
// decrypt the sealed model in c.Shared, measure the program against the
// owner's expectation, allocate the task's secure-memory chunk, and
// enqueue it. The task keeps what submit derived from the measured ops
// (their measurement and VA span), not c.Program, which stays in
// driver memory.
func (m *Monitor) submit(c Call) (int, error) {
	if c.Program == nil {
		return 0, m.reject(fmt.Errorf("monitor: nil program"))
	}
	// Code verifier: statically validate the op stream's structure,
	// then measure it against the owner's expectation.
	if err := c.Program.Validate(); err != nil {
		return 0, m.reject(fmt.Errorf("monitor: program rejected: %w", err))
	}
	meas := c.Program.Measurement()
	if meas != c.Expected {
		m.note(TrSubmitBadMeas)
		return 0, m.reject(ErrBadMeasurement)
	}
	var model []byte
	if len(c.Shared) > 0 {
		key, ok := m.keys[c.KeyID]
		if !ok {
			m.note(TrUnsealFailed)
			return 0, m.reject(fmt.Errorf("monitor: no key %q provisioned", c.KeyID))
		}
		var err error
		model, err = OpenModel(key, c.Shared)
		if err != nil {
			m.note(TrUnsealFailed)
			return 0, m.reject(err)
		}
	}
	// Trusted allocator: the task's working buffers live in secure
	// memory, never in the driver-controlled reserved heap. The window
	// comes from the form just measured (VASpan derives it from the
	// program's nests or literal ops), not from anything the program
	// recorded about itself.
	lo, hi := c.Program.VASpan()
	_, size := mem.PageWindow(lo, hi)
	chunk, err := m.alloc.Alloc(size, mem.PageSize)
	if err != nil {
		m.note(TrSubmitNoSpace)
		return 0, m.reject(err)
	}
	task := &secureTask{
		ID:          m.nextID,
		model:       model,
		Chunk:       chunk,
		ChunkSize:   size,
		Topology:    c.Topology,
		spanLo:      lo,
		spanHi:      hi,
		measurement: meas,
	}
	m.nextID++
	m.queue = append(m.queue, task)
	m.tasks[task.ID] = task
	m.note(TrSubmitVerified)
	return task.ID, nil
}

// load is the secure-loader + context-setter path: verify the route
// integrity of the scheduled cores, check scratchpad reservations for
// overlap, flip the cores' ID states, and program each core's Guarder
// with the task's translation window and checking authority. A task
// loads once: a second load would drop the cores of the first, which
// the eviction then never returns to the normal world.
func (m *Monitor) load(taskID int, cores []int, spadFrom, spadTo int) error {
	task, ok := m.tasks[taskID]
	if !ok {
		return m.reject(ErrUnknownTask)
	}
	if task.Loaded {
		return m.reject(fmt.Errorf("monitor: task %d is already loaded", taskID))
	}
	// Secure loader: route integrity.
	coords := make([]noc.Coord, 0, len(cores))
	for _, ci := range cores {
		core, err := m.acc.Core(ci)
		if err != nil {
			return m.reject(err)
		}
		coords = append(coords, core.Coord())
	}
	topo := task.Topology
	if topo.Cores() == 0 {
		topo = isolator.Topology{W: 1, H: 1}
	}
	if err := isolator.VerifyRoute(topo, coords); err != nil {
		m.note(TrLoadBadRoute)
		return m.reject(err)
	}
	// Trusted allocator: no scratchpad overlap among loaded secure
	// tasks sharing a core.
	if spadTo <= spadFrom || spadFrom < 0 {
		return m.reject(fmt.Errorf("monitor: bad scratchpad range [%d,%d)", spadFrom, spadTo))
	}
	for _, other := range m.tasks {
		if !other.Loaded {
			continue
		}
		if sharesCore(other.Cores, cores) && spadFrom < other.SpadLines[1] && other.SpadLines[0] < spadTo {
			return m.reject(ErrOverlappingSpad)
		}
	}
	// Context setter: core ID states + Guarder registers.
	for _, ci := range cores {
		core, err := m.acc.Core(ci)
		if err != nil {
			return m.reject(err)
		}
		if err := core.SetDomain(m.ctx, spad.SecureDomain); err != nil {
			return m.reject(err)
		}
		if g, ok := m.guarders[ci]; ok {
			vbase, size := mem.PageWindow(task.spanLo, task.spanHi)
			if err := g.SetTransReg(m.ctx, 0, guarder.TransReg{
				VBase: vbase, PBase: task.Chunk, Size: size, Valid: true,
			}); err != nil {
				return m.reject(err)
			}
			if err := g.SetCheckReg(m.ctx, 1, guarder.CheckReg{
				Base: task.Chunk, Size: task.ChunkSize,
				Perm: mem.PermRW, World: mem.Secure, Valid: true,
			}); err != nil {
				return m.reject(err)
			}
		}
	}
	task.Cores = append([]int(nil), cores...)
	task.SpadLines = [2]int{spadFrom, spadTo}
	task.Loaded = true
	m.note(TrLoadOK)
	m.dequeue(taskID)
	return nil
}

// unload releases a task: its KV windows are scrubbed and freed, a
// loaded task is evicted from its cores, and its chunk is freed.
func (m *Monitor) unload(taskID int) error {
	task, ok := m.tasks[taskID]
	if !ok {
		return m.reject(ErrUnknownTask)
	}
	if task.Loaded {
		m.note(TrUnloadLoaded)
	} else {
		m.note(TrUnloadQueued)
	}
	if err := m.release(task); err != nil {
		return m.reject(err)
	}
	return nil
}

// preempt evicts a loaded task from its cores without destroying it:
// the §IV-B flush-on-switch. The eviction is unload's, but the task's
// secure chunk and decrypted model stay resident, so a later load
// resumes it without re-verification. The preempted task returns to
// the tail of the pending queue.
func (m *Monitor) preempt(taskID int) error {
	task, ok := m.tasks[taskID]
	if !ok {
		m.note(TrPreemptRefused)
		return m.reject(ErrUnknownTask)
	}
	if !task.Loaded {
		m.note(TrPreemptRefused)
		return m.reject(fmt.Errorf("monitor: task %d is not loaded", taskID))
	}
	m.note(TrPreemptLoaded)
	m.stats.Inc(sim.CtrMonitorPreempts)
	if err := m.evict(task); err != nil {
		return m.reject(err)
	}
	m.queue = append(m.queue, task)
	return nil
}

// abort is the fail-closed teardown path the recovery machinery takes
// when a secure task hangs or hits an unrecoverable fault. Everything
// unload does, plus: the decrypted model is zeroed and the task's
// secure chunk is wiped before returning to the allocator — no secure
// state survives the abort, so even a fault at the worst possible
// moment leaves nothing for the normal world to find. The untrusted
// driver observes only an opaque "task gone" condition.
func (m *Monitor) abort(taskID int) error {
	task, ok := m.tasks[taskID]
	if !ok {
		return m.reject(ErrUnknownTask)
	}
	m.stats.Inc(sim.CtrMonitorAborts)
	if task.Loaded {
		m.note(TrAbortLoaded)
	} else {
		m.note(TrAbortQueued)
	}
	clear(task.model)
	task.model = nil
	m.machine.Phys().Zero(task.Chunk, task.ChunkSize)
	if err := m.release(task); err != nil {
		return m.reject(err)
	}
	return nil
}

// release is the teardown unload and abort share. The §IV-B flush
// contract for resident caches comes first: the owner's KV windows are
// scrubbed and freed, wherever they were claimed. Then a loaded task
// is evicted, its chunk returns to the allocator, and the monitor
// forgets it.
func (m *Monitor) release(task *secureTask) error {
	if err := m.releaseKV(task.ID); err != nil {
		return err
	}
	if task.Loaded {
		if err := m.evict(task); err != nil {
			return err
		}
	}
	if err := m.alloc.Free(task.Chunk); err != nil {
		return err
	}
	delete(m.tasks, task.ID)
	m.dequeue(task.ID)
	return nil
}

// evict is the per-core context-switch teardown of a loaded task. On
// every core it ran on, the task's scratchpad range is scrubbed around
// live KV windows (resident caches, the task's own and others',
// survive), the accumulator is reset, the core returns to the
// non-secure domain, and every Guarder translation register is
// invalidated. No secure bytes of the task stay readable on its cores.
func (m *Monitor) evict(task *secureTask) error {
	for _, ci := range task.Cores {
		core, err := m.acc.Core(ci)
		if err != nil {
			return err
		}
		sp := core.Scratchpad()
		if err := m.scrubSpadAround(sp, ci, task.SpadLines[0], min(task.SpadLines[1], sp.Lines())); err != nil {
			return err
		}
		acc := core.Accumulator()
		if err := acc.ResetSecure(m.ctx, 0, acc.Lines()); err != nil {
			return err
		}
		if err := core.SetDomain(m.ctx, spad.NonSecure); err != nil {
			return err
		}
		if g, ok := m.guarders[ci]; ok {
			if err := g.ClearTask(m.ctx); err != nil {
				return err
			}
		}
	}
	task.Loaded = false
	task.Cores = nil
	return nil
}

// dequeue removes a task from the pending queue, if it waits there.
func (m *Monitor) dequeue(taskID int) {
	m.queue = slices.DeleteFunc(m.queue, func(q *secureTask) bool { return q.ID == taskID })
}

// SetupPlatform installs the boot-time platform policy into every
// core's Guarder checking registers: the normal world may read/write
// the NPU-reserved region, the secure world additionally the secure
// region. Checking registers are rarely modified afterwards (§IV-A).
func (m *Monitor) SetupPlatform(reservedBase mem.PhysAddr, reservedSize uint64, secureBase mem.PhysAddr, secureSize uint64) error {
	for _, g := range m.guarders {
		if err := g.SetCheckReg(m.ctx, 0, guarder.CheckReg{
			Base: reservedBase, Size: reservedSize, Perm: mem.PermRW, World: mem.Normal, Valid: true,
		}); err != nil {
			return err
		}
		if err := g.SetCheckReg(m.ctx, 2, guarder.CheckReg{
			Base: reservedBase, Size: reservedSize, Perm: mem.PermRW, World: mem.Secure, Valid: true,
		}); err != nil {
			return err
		}
		if err := g.SetCheckReg(m.ctx, 3, guarder.CheckReg{
			Base: secureBase, Size: secureSize, Perm: mem.PermRW, World: mem.Secure, Valid: true,
		}); err != nil {
			return err
		}
	}
	return nil
}

// mapNonSecure programs a translation window for a NON-secure task on
// behalf of the untrusted driver (translation registers are secure
// state, so the driver cannot write them itself). The monitor applies
// no software checks beyond refusing slot 0, which load reserves for
// the secure task's window, and windows that reach into secure-owned
// memory — for non-secure tasks the hardware checking registers carry
// the isolation (§IV-C: "for non-secure tasks, we do not apply any
// software checks and rely only on the hardware mechanisms").
func (m *Monitor) mapNonSecure(core int, slot int, vbase mem.VirtAddr, pbase mem.PhysAddr, size uint64) error {
	g, ok := m.guarders[core]
	if !ok {
		return m.reject(fmt.Errorf("monitor: core %d has no guarder", core))
	}
	if slot == 0 {
		return m.reject(fmt.Errorf("monitor: translation slot 0 is reserved for the secure task"))
	}
	if r, found := m.machine.Phys().FindRegion(pbase); found && r.Owner == mem.Secure {
		m.note(TrMapSecureTarget)
		return m.reject(fmt.Errorf("monitor: non-secure window targets secure region %q", r.Name))
	}
	if err := g.SetTransReg(m.ctx, slot, guarder.TransReg{VBase: vbase, PBase: pbase, Size: size, Valid: true}); err != nil {
		return m.reject(err)
	}
	m.note(TrMapOK)
	return nil
}

// HasTask reports whether the monitor holds a task with this ID,
// queued or loaded.
func (m *Monitor) HasTask(taskID int) bool {
	_, ok := m.tasks[taskID]
	return ok
}

// Attest quotes a held task: the Root-of-Trust binds the measurement
// FnSubmit's code verifier checked to the boot chain and the nonce,
// under the monitor's secure context. It hashes nothing and reads no
// driver memory. A task the monitor no longer holds (never submitted,
// unloaded, aborted, or dropped by Reset) gets no quote.
func (m *Monitor) Attest(taskID int, nonce uint64) (tee.Report, error) {
	t, ok := m.tasks[taskID]
	if !ok {
		return tee.Report{}, ErrUnknownTask
	}
	return m.machine.Attest(m.ctx, t.measurement, nonce)
}

// QueueLen reports pending (submitted, unloaded) secure tasks.
func (m *Monitor) QueueLen() int { return len(m.queue) }

// NextQueued peeks the oldest pending task ID.
func (m *Monitor) NextQueued() (int, error) {
	if len(m.queue) == 0 {
		return 0, ErrQueueEmpty
	}
	return m.queue[0].ID, nil
}

// ModelBytes exposes the decrypted model of a task. It demands the
// secure context: untrusted code cannot pull plaintext models out.
func (m *Monitor) ModelBytes(ctx tee.Context, taskID int) ([]byte, error) {
	if err := ctx.RequireSecure(); err != nil {
		return nil, err
	}
	t, ok := m.tasks[taskID]
	if !ok {
		return nil, ErrUnknownTask
	}
	return t.model, nil
}

func (m *Monitor) reject(err error) error {
	m.stats.Inc(sim.CtrMonitorRejected)
	return err
}

func sharesCore(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}
