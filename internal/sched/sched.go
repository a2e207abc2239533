// Package sched is the multi-tenant secure task scheduler layered on
// the NPU Monitor's primitives (§IV-B, §IV-C): it admits a stream of
// secure and non-secure inference requests (per-tenant queues,
// priorities, deadlines), packs them onto NPU cores through the
// monitor trampoline, preempts with the mandatory flush-on-switch and
// ID-bit reassignment of §IV-B, backfills idle cores with non-secure
// work, and batches same-model requests from one tenant to amortize
// the monitor's sealing/verification cost. The serving layer itself is
// beyond the paper; every isolation-relevant action it takes goes
// through the monitor, so the scheduler stays untrusted (§III threat
// model) — a buggy or malicious scheduler can waste cycles but cannot
// weaken isolation, which the property suite pins.
//
// Everything is cycle-deterministic: decisions depend only on the
// submitted requests (never wall clock, map order, or goroutine
// interleaving), so one request trace replays to byte-identical
// per-request cycle counts and decision logs across fresh System
// instances.
package sched

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/driver"
	"repro/internal/guarder"
	"repro/internal/mem"
	"repro/internal/monitor"
	"repro/internal/npu"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spad"
	"repro/internal/workload"
)

// Errors the scheduler surfaces to submitters. ErrTaskAborted is
// deliberately opaque: whatever went wrong inside the secure world, the
// untrusted side learns only that the task is gone.
var (
	ErrTaskAborted   = errors.New("sched: task aborted")
	ErrDuplicateID   = errors.New("sched: duplicate request id")
	ErrNoMonitor     = errors.New("sched: secure request on a system without a monitor")
	ErrAlreadyRan    = errors.New("sched: scheduler already ran")
	ErrBadRequest    = errors.New("sched: bad request")
	ErrModelTooLarge = errors.New("sched: sealed model exceeds the size cap")
)

// MaxSealedBytes caps a secure request's sealed-model payload; the
// serve API turns an oversized blob into a 4xx before it reaches the
// monitor.
const MaxSealedBytes = 8 << 20

// DefaultMaxBatch is the same-model batching width when Config.MaxBatch
// is zero.
const DefaultMaxBatch = 4

// DefaultSubmitBaseCycles models the fixed per-FnSubmit cost of the
// monitor's verification + attestation handshake: batching exists to
// pay it once per batch instead of once per request. The streaming
// part (unsealing the model at DRAM bandwidth) is added per blob.
const DefaultSubmitBaseCycles sim.Cycle = 10000

// Priority orders requests; higher runs first and may preempt lower.
type Priority int

// Request is one inference submission.
type Request struct {
	// ID is the caller-assigned unique id (> 0).
	ID int
	// Tenant names the submitting tenant; per-tenant queues and the
	// fairness metric key off it.
	Tenant string
	// Model is a built-in workload name. When Workload is set, Model is
	// a display label only and defaults to Workload.Name.
	Model string
	// Workload, when non-nil, is a custom (graph-IR-derived) workload to
	// run instead of a registry model. Submit validates it and takes a
	// private deep copy; secure custom workloads batch only with
	// requests compiled from a byte-identical graph.
	Workload *workload.Workload
	// Secure routes the request through the NPU Monitor.
	Secure   bool
	Priority Priority
	// Arrival is the request's arrival cycle on the simulated clock.
	Arrival sim.Cycle
	// Deadline, when non-zero, is the latest finish cycle. Admission
	// rejects a request that cannot possibly finish by then (its
	// compute-cycle floor already overshoots), dispatch drops members
	// whose floor no longer fits, and a run that crosses its deadline
	// is cut deterministically at the next tile boundary — a secure cut
	// still pays the §IV-B flush before the core is reused.
	Deadline sim.Cycle
	// KeyID and Sealed carry the secure payload: the tenant's
	// provisioned sealing-key name and the sealed model blob.
	KeyID  string
	Sealed []byte
	// Decode, when non-nil, makes this an autoregressive decode request:
	// a prefill pass plus Decode.Steps single-token passes, each pass
	// boundary a token boundary the continuous batcher interleaves and
	// joins/leaves at. Decode requests must be Secure (the resident KV
	// cache is monitor-mediated) and are mutually exclusive with
	// Workload; Model defaults to the spec's deterministic name.
	Decode *workload.DecodeSpec
}

// Result reports one request's outcome.
type Result struct {
	ID      int       `json:"id"`
	Tenant  string    `json:"tenant"`
	Model   string    `json:"model"`
	Secure  bool      `json:"secure"`
	Arrival sim.Cycle `json:"arrival"`
	// Start is the first cycle the request's program ran; Finish is
	// its retire cycle. Latency = Finish - Arrival.
	Start  sim.Cycle `json:"start"`
	Finish sim.Cycle `json:"finish"`
	Core   int       `json:"core"`
	// Preemptions counts evictions this request suffered.
	Preemptions int `json:"preemptions"`
	// Batched marks a request that rode a batch-mate's FnSubmit.
	Batched bool `json:"batched"`
	// Retries counts fault-retry resubmissions this request consumed.
	Retries int `json:"retries,omitempty"`
	// Completed / Dropped / Aborted / Rejected / Shed partition
	// outcomes.
	Completed bool `json:"completed"`
	Dropped   bool `json:"dropped,omitempty"`
	Aborted   bool `json:"aborted,omitempty"`
	Rejected  bool `json:"rejected,omitempty"`
	// Shed marks a victim of per-tenant admission backpressure: a
	// full queue made room for a strictly higher-priority arrival.
	Shed bool `json:"shed,omitempty"`
	// Retryable marks an aborted result whose failure class (an
	// execution fault, not an isolation violation) makes a client
	// retry worthwhile. The error string itself stays equally opaque
	// for both classes.
	Retryable bool   `json:"retryable,omitempty"`
	Err       string `json:"err,omitempty"`
	// Tokens counts the tokens a decode request emitted (prefill emits
	// the first); zero for conventional requests. A partially decoded
	// request (deadline cut mid-stream) reports the tokens it streamed.
	Tokens int `json:"tokens,omitempty"`
}

// Latency is Finish - Arrival for completed requests.
func (r Result) Latency() sim.Cycle { return r.Finish - r.Arrival }

// Config tunes one scheduler instance.
type Config struct {
	// Cores lists the NPU cores the scheduler owns (default: all).
	Cores []int
	// MaxBatch bounds same-tenant same-model secure batching
	// (default DefaultMaxBatch; 1 disables batching).
	MaxBatch int
	// MaxRestarts enables fault retries for secure requests: a task
	// aborted by an execution fault re-enters the queue (after an
	// exponential backoff) up to MaxRestarts times per request,
	// restarting from its last completed layer checkpoint through a
	// fresh FnSubmit. 0 disables retries — a fault aborts terminally,
	// exactly the pre-policy behavior. Attempt n waits
	// RetryBackoff(n) cycles.
	MaxRestarts int
	// MaxQueuePerTenant bounds how many non-terminal requests one
	// tenant may have queued in the episode (0 = unlimited). A full
	// queue sheds its least-urgent member to make room for a strictly
	// higher-priority arrival, else refuses with ErrQueueFull.
	MaxQueuePerTenant int
	// Breaker, when set, quarantines tenants whose tasks repeatedly
	// abort; it persists across episodes (the serve daemon owns it).
	Breaker *Breaker
	// OnDecision, when set, observes every scheduling decision as it
	// is made (the property tests hook probes here).
	OnDecision func(Decision)
}

// Deps wires the scheduler to one simulated SoC. Monitor may be nil on
// the unprotected baseline, which then serves non-secure requests only.
type Deps struct {
	NPU     *npu.NPU
	Monitor *monitor.Monitor
	Driver  *driver.Driver
	Cfg     npu.Config
	Stats   *sim.Stats
}

// reqState tracks one request through its lifetime.
type reqState struct {
	req Request
	// progs holds one compiled program per pass. A conventional request
	// is one pass; a decode request is its prefill (progs[0], the program
	// FnSubmit measures) plus one pass per step. pass is the cursor into
	// progs — for decode, the tokens emitted so far — and tokenEnds the
	// per-token retire cycles.
	progs     []*npu.Program
	pass      int
	tokenEnds []sim.Cycle
	// minExec is the compute-cycle floor (the passes' summed peak-rate
	// lower bounds) used for deadline feasibility — it never
	// overestimates, so feasibility rejection is sound.
	minExec sim.Cycle

	ex      *npu.Exec
	started bool
	start   sim.Cycle
	finish  sim.Cycle
	core    int

	task *driver.Task // non-secure DMA chunk

	preempts int
	batched  bool

	// attempts / checkpoint / retryAt drive the fault-retry ladder:
	// attempts counts consumed restarts, checkpoint is the last
	// completed layer boundary (restart skips to it and pays the
	// restore flush), retryAt is when the backoff expires.
	attempts   int
	checkpoint int
	retryAt    sim.Cycle

	terminal  bool
	completed bool
	dropped   bool
	aborted   bool
	rejected  bool
	shed      bool
	retryable bool
	errMsg    string
}

// job is the dispatch unit: a single non-secure request, or a batch of
// same-tenant same-model secure requests sharing one monitor task.
type job struct {
	members []*reqState
	// cursor indexes the member whose pass runs next; after every pass
	// it rotates to the next live member. A single-pass member is
	// terminal by then, so a conventional batch runs its members one
	// after another, while a decode batch interleaves one token each.
	cursor  int
	secure  bool
	monID   int // monitor task id (secure)
	prio    Priority
	arrival sim.Cycle
	leadID  int
	// loadCost is the one-time FnSubmit amortization charged at first
	// load (verification handshake + streaming unseal).
	loadCost sim.Cycle
	// slot/mapped track the non-secure translation window.
	slot   int
	mapped bool
	coreID int // affine core once started (-1 before)

	// decode marks a continuous decode batch: requests join and leave
	// at token boundaries.
	decode bool
	// kvLines is the resident KV window claimed for this job's monitor
	// task (0 until the first load's FnKVAlloc).
	kvLines int
}

func (j *job) lead() *reqState { return j.members[0] }

func (j *job) cur() *reqState { return j.members[j.cursor] }

func (j *job) done() bool { return j.remaining() == 0 }

// remaining counts members still owed work.
func (j *job) remaining() int {
	n := 0
	for _, m := range j.members {
		if !m.terminal {
			n++
		}
	}
	return n
}

// rotate moves the cursor to the next live member, if any.
func (j *job) rotate() {
	for range j.members {
		j.cursor = (j.cursor + 1) % len(j.members)
		if !j.cur().terminal {
			return
		}
	}
}

// curProg is the program of the member's current pass.
func (m *reqState) curProg() *npu.Program { return m.progs[m.pass] }

// coreState is one owned core's scheduling state.
type coreState struct {
	id     int
	core   *npu.Core
	freeAt sim.Cycle
	cur    *job
	resume []*job // preempted jobs, affine to this core
	slots  []bool // translation-window slots 1..DefaultTransRegs-1; true = taken
}

// Scheduler runs one deterministic scheduling episode. It is not safe
// for concurrent use; callers (the serve daemon) serialize access.
type Scheduler struct {
	deps Deps
	cfg  Config

	all  []*reqState
	byID map[int]*reqState
	ran  bool

	// run-time state
	future   []*reqState
	waitlist []*reqState // admitted-pending: out of secure/reserved memory
	retryQ   []*reqState // fault-aborted, waiting out a retry backoff
	ready    []*job
	cores    []*coreState
	openJobs []*job // batch-joinable secure jobs
	memFreed bool

	tenantQueued map[string]int // non-terminal submissions per tenant

	decisions   []Decision
	flushCycles sim.Cycle

	obsLatency *obs.Histogram
}

// New validates deps and builds an empty scheduler.
func New(deps Deps, cfg Config) (*Scheduler, error) {
	if deps.NPU == nil || deps.Driver == nil {
		return nil, fmt.Errorf("sched: nil NPU or Driver")
	}
	if len(cfg.Cores) == 0 {
		cfg.Cores = make([]int, deps.Cfg.Tiles)
		for i := range cfg.Cores {
			cfg.Cores[i] = i
		}
	}
	seen := make(map[int]bool, len(cfg.Cores))
	for _, ci := range cfg.Cores {
		if _, err := deps.NPU.Core(ci); err != nil {
			return nil, err
		}
		if seen[ci] {
			return nil, fmt.Errorf("sched: core %d listed twice", ci)
		}
		seen[ci] = true
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	return &Scheduler{
		deps: deps, cfg: cfg,
		byID:         make(map[int]*reqState),
		tenantQueued: make(map[string]int),
	}, nil
}

// AttachObserver wires the sched.latency.cycles request-latency
// histogram into an observability registry. Nil detaches. The
// scheduler's decision counters (sched.dispatch.count, ...) count into
// Deps.Stats whether or not an observer is attached.
func (s *Scheduler) AttachObserver(o *obs.Observer) {
	s.obsLatency = nil
	if o != nil {
		s.obsLatency = o.Registry().Histogram("sched.latency.cycles")
	}
}

// Submit validates and queues one request. Validation is the
// front-door admission control: unknown models, duplicate IDs,
// oversized sealed blobs, and secure requests on a monitor-less system
// are refused here (the serve API maps these to 4xx).
func (s *Scheduler) Submit(r Request) error {
	if s.ran {
		return ErrAlreadyRan
	}
	if r.ID <= 0 {
		return fmt.Errorf("%w: id must be > 0", ErrBadRequest)
	}
	if _, dup := s.byID[r.ID]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateID, r.ID)
	}
	if r.Tenant == "" {
		return fmt.Errorf("%w: empty tenant", ErrBadRequest)
	}
	if r.Deadline > 0 && r.Deadline <= r.Arrival {
		return fmt.Errorf("%w: deadline %d not after arrival %d", ErrBadRequest, r.Deadline, r.Arrival)
	}
	if !s.cfg.Breaker.Allow(r.Tenant) {
		return fmt.Errorf("%w: %s", ErrTenantQuarantined, r.Tenant)
	}
	if r.Decode != nil {
		if !r.Secure {
			return fmt.Errorf("%w: decode requests must be secure (resident KV is monitor-mediated)", ErrBadRequest)
		}
		if r.Workload != nil {
			return fmt.Errorf("%w: decode and workload are mutually exclusive", ErrBadRequest)
		}
		if err := r.Decode.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		spec := *r.Decode
		r.Decode = &spec
		if r.Model == "" {
			r.Model = spec.ModelName()
		}
	}
	if r.Workload != nil {
		if err := r.Workload.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		if r.Model == "" {
			r.Model = r.Workload.Name
		}
		clone := r.Workload.Clone()
		r.Workload = &clone
	} else if r.Decode == nil {
		if _, err := workload.Lookup(r.Model); err != nil {
			return fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	if r.Secure {
		if s.deps.Monitor == nil {
			return ErrNoMonitor
		}
		if len(r.Sealed) > MaxSealedBytes {
			return fmt.Errorf("%w: %d > %d bytes", ErrModelTooLarge, len(r.Sealed), MaxSealedBytes)
		}
		if len(r.Sealed) > 0 && r.KeyID == "" {
			return fmt.Errorf("%w: sealed model without a key id", ErrBadRequest)
		}
	}
	if s.cfg.MaxQueuePerTenant > 0 && s.tenantQueued[r.Tenant] >= s.cfg.MaxQueuePerTenant {
		victim := s.shedVictim(r.Tenant)
		if victim == nil || victim.req.Priority >= r.Priority {
			return fmt.Errorf("%w: %s at %d", ErrQueueFull, r.Tenant, s.cfg.MaxQueuePerTenant)
		}
		s.shed(victim, r.Arrival, r.ID)
	}
	r.Sealed = append([]byte(nil), r.Sealed...)
	rs := &reqState{req: r, core: -1}
	s.all = append(s.all, rs)
	s.byID[r.ID] = rs
	s.tenantQueued[r.Tenant]++
	return nil
}

// shedVictim picks the tenant's least-urgent queued request: lowest
// priority, then latest arrival, then highest id — the exact reverse of
// the dispatch order, so shedding always sacrifices what would have run
// last.
func (s *Scheduler) shedVictim(tenant string) *reqState {
	var victim *reqState
	for _, rs := range s.all {
		if rs.terminal || rs.req.Tenant != tenant {
			continue
		}
		if victim == nil || reqLess(victim, rs) {
			victim = rs
		}
	}
	return victim
}

// shed retires a queue-bound victim: deterministic load shedding, not a
// failure of the request itself — the serve layer maps it to 429 with a
// Retry-After hint.
func (s *Scheduler) shed(rs *reqState, at sim.Cycle, forID int) {
	rs.terminal, rs.shed = true, true
	rs.errMsg = "sched: shed by tenant queue bound"
	s.tenantQueued[rs.req.Tenant]--
	s.decide(at, -1, "shed", rs, fmt.Sprintf("for req %d", forID))
}

// Pending reports queued, not-yet-run requests.
func (s *Scheduler) Pending() int {
	if s.ran {
		return 0
	}
	return len(s.all)
}

// Report is one episode's outcome: per-request results (ascending
// request ID) plus the full decision log.
type Report struct {
	Results   []Result
	Decisions []Decision
	// Makespan is the last retire cycle.
	Makespan sim.Cycle
	// FlushCycles is the total context-switch save/restore cost paid.
	FlushCycles                                 sim.Cycle
	Completed, Rejected, Dropped, Aborted, Shed int
	Preemptions                                 int
	// BatchedRuns counts requests that shared a batch-mate's FnSubmit.
	BatchedRuns int
	// Retries is total fault-retry resubmissions; Recovered counts
	// requests that completed after at least one retry.
	Retries, Recovered int
	// Tokens is the total autoregressive tokens emitted by decode
	// requests; TokenTimes maps a decode request's ID to the cycle each
	// of its tokens retired at (in emission order), for inter-token
	// latency analysis.
	Tokens     int
	TokenTimes map[int][]sim.Cycle
}

// DecisionLog renders the decision stream, one line per decision.
func (r *Report) DecisionLog() string {
	var b strings.Builder
	for _, d := range r.Decisions {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// ResultByID finds one request's result (nil if unknown).
func (r *Report) ResultByID(id int) *Result {
	for i := range r.Results {
		if r.Results[i].ID == id {
			return &r.Results[i]
		}
	}
	return nil
}

// Run executes every submitted request to a terminal state and
// consumes the scheduler (a second Run returns ErrAlreadyRan).
func (s *Scheduler) Run() (*Report, error) {
	if s.ran {
		return nil, ErrAlreadyRan
	}
	s.ran = true
	s.deps.NPU.ResetTiming()
	s.prepare()

	for _, ci := range s.cfg.Cores {
		core, err := s.deps.NPU.Core(ci)
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, &coreState{
			id: ci, core: core, slots: make([]bool, guarder.DefaultTransRegs),
		})
	}
	for _, rs := range s.all {
		if !rs.terminal {
			s.future = append(s.future, rs)
		}
	}
	sort.SliceStable(s.future, func(i, j int) bool {
		a, b := s.future[i], s.future[j]
		if a.req.Arrival != b.req.Arrival {
			return a.req.Arrival < b.req.Arrival
		}
		return a.req.ID < b.req.ID
	})

	var clock sim.Cycle
	for {
		if s.memFreed {
			s.memFreed = false
			s.retryWaitlist(clock)
		}
		s.admitUpTo(clock)
		s.dispatchIdle(clock)

		// Choose the next event: the laggard busy core, unless an
		// arrival lands first.
		var c *coreState
		for _, cs := range s.cores {
			if cs.cur == nil {
				continue
			}
			if c == nil || cs.freeAt < c.freeAt || (cs.freeAt == c.freeAt && cs.id < c.id) {
				c = cs
			}
		}
		if c == nil {
			if t, ok := s.nextPending(); ok {
				clock = t
				continue
			}
			if s.outstanding() == 0 {
				break
			}
			// Nothing runs, nothing arrives, work remains: the leftover
			// requests can never be placed. Fail them closed.
			s.rejectStranded(clock)
			break
		}
		if t, ok := s.nextPending(); ok && t < c.freeAt {
			clock = t
			continue
		}
		if c.freeAt > clock {
			clock = c.freeAt
		}
		s.advance(c)
	}
	return s.assemble(), nil
}

// nextPending is the earliest future event the scheduler must wake
// for: the next arrival or the next retry-backoff expiry.
func (s *Scheduler) nextPending() (sim.Cycle, bool) {
	var t sim.Cycle
	ok := false
	if len(s.future) > 0 {
		t, ok = s.future[0].req.Arrival, true
	}
	if len(s.retryQ) > 0 && (!ok || s.retryQ[0].retryAt < t) {
		t, ok = s.retryQ[0].retryAt, true
	}
	return t, ok
}

// outstanding counts non-terminal requests still queued somewhere.
func (s *Scheduler) outstanding() int {
	n := len(s.waitlist) + len(s.retryQ)
	for _, j := range s.ready {
		n += j.remaining()
	}
	for _, cs := range s.cores {
		for _, j := range cs.resume {
			n += j.remaining()
		}
	}
	return n
}

// workload resolves the request's workload: the submitted custom graph
// when one was attached, the registry model otherwise.
func (rs *reqState) workload() (workload.Workload, error) {
	if rs.req.Workload != nil {
		return *rs.req.Workload, nil
	}
	return workload.Lookup(rs.req.Model)
}

// prepare compiles every request's programs in submission order.
// Per-request layouts keep VA spans non-aliasing (secure programs use
// the monitor's fixed layout; the per-core slot-0 window disambiguates).
func (s *Scheduler) prepare() {
	compile := func(rs *reqState) {
		if rs.terminal { // shed at submit time: nothing to compile
			return
		}
		// A decode request compiles its prefill and every step;
		// CompileCached makes the repeated step shapes cheap across
		// same-spec requests.
		var passes []workload.Workload
		if rs.req.Decode != nil {
			passes = rs.req.Decode.Passes()
		} else {
			wl, err := rs.workload()
			if err != nil {
				rs.errMsg = err.Error()
				return
			}
			passes = append(passes, wl)
		}
		layout := npu.DefaultLayout
		if !rs.req.Secure {
			layout = driver.LayoutFor(rs.req.ID)
		}
		progs := make([]*npu.Program, len(passes))
		var floor sim.Cycle
		for i, p := range passes {
			prog, _, err := npu.CompileCached(p, s.deps.Cfg, 0, layout)
			if err != nil {
				rs.errMsg = err.Error()
				return
			}
			progs[i] = prog
			floor += sim.Cycle(prog.IdealComputeCycles)
		}
		rs.progs, rs.minExec = progs, floor
	}
	for _, rs := range s.all {
		compile(rs)
	}
	// Reject compile failures in ID order, before the event loop.
	ordered := append([]*reqState(nil), s.all...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].req.ID < ordered[j].req.ID })
	for _, rs := range ordered {
		if rs.progs == nil && !rs.terminal {
			s.reject(rs, rs.req.Arrival, rs.errMsg)
		}
	}
}

// admitUpTo moves arrivals and expired retry backoffs due by `t` into
// the scheduler in event order: secure requests go through monitor
// admission (verify + secure-memory allocation) or join an open batch;
// non-secure requests take their DMA chunk from reserved memory.
// Out-of-memory admissions waitlist. Arrivals win retry ties so a
// retried task never jumps ahead of fresh work due the same cycle.
func (s *Scheduler) admitUpTo(t sim.Cycle) {
	for {
		hasF := len(s.future) > 0 && s.future[0].req.Arrival <= t
		hasR := len(s.retryQ) > 0 && s.retryQ[0].retryAt <= t
		switch {
		case hasF && (!hasR || s.future[0].req.Arrival <= s.retryQ[0].retryAt):
			rs := s.future[0]
			s.future = s.future[1:]
			s.admit(rs, rs.req.Arrival)
		case hasR:
			rs := s.retryQ[0]
			s.retryQ = s.retryQ[1:]
			s.admit(rs, rs.retryAt)
		default:
			return
		}
	}
}

func (s *Scheduler) admit(rs *reqState, at sim.Cycle) {
	// Reject-on-admit: a deadline the compute floor already overshoots
	// can never be met — refuse it instead of burning cycles. Retried
	// members were re-checked when their backoff was scheduled.
	if rs.attempts == 0 && rs.req.Deadline > 0 && at+rs.minExec > rs.req.Deadline {
		s.reject(rs, at, "deadline infeasible")
		return
	}
	if rs.req.Secure {
		// A retried task resubmits through the full verification path:
		// no riding an open batch's earlier FnSubmit.
		if j := s.joinableBatch(rs); j != nil && rs.attempts == 0 {
			rs.batched = true
			j.members = append(j.members, rs)
			if rs.req.Priority > j.prio {
				j.prio = rs.req.Priority
			}
			s.deps.Stats.Inc(sim.CtrSchedBatches)
			if j.decode {
				// Continuous batching: the member joins a possibly
				// running batch; the round-robin cursor reaches it at
				// the next token boundary.
				s.decide(at, -1, "join", rs, fmt.Sprintf("joined req %d (%d live)", j.leadID, j.remaining()))
			} else {
				s.decide(at, -1, "batch", rs, fmt.Sprintf("joined req %d (%d/%d)", j.leadID, len(j.members), s.cfg.MaxBatch))
			}
			return
		}
		rep := s.deps.Monitor.Dispatch(monitor.Call{
			Func:     monitor.FnSubmit,
			Shared:   rs.req.Sealed,
			Program:  rs.progs[0],
			Expected: rs.progs[0].OwnerMeasurement(),
			KeyID:    rs.req.KeyID,
		})
		if rep.Err != nil {
			if errors.Is(rep.Err, mem.ErrNoSpace) {
				s.waitlist = append(s.waitlist, rs)
				s.decide(at, -1, "defer", rs, "secure memory full")
				return
			}
			s.reject(rs, at, rep.Err.Error())
			return
		}
		j := &job{
			members: []*reqState{rs}, secure: true, monID: int(rep.Value),
			prio: rs.req.Priority, arrival: rs.req.Arrival, leadID: rs.req.ID,
			loadCost: s.submitCost(rs), coreID: -1,
			decode: rs.req.Decode != nil,
		}
		s.ready = append(s.ready, j)
		s.openJobs = append(s.openJobs, j)
		s.decide(at, -1, "admit", rs, "secure")
		return
	}
	wl, _ := rs.workload()
	task, err := s.deps.Driver.SubmitProgram(wl, rs.progs[0], false)
	if err != nil {
		if errors.Is(err, mem.ErrNoSpace) {
			s.waitlist = append(s.waitlist, rs)
			s.decide(at, -1, "defer", rs, "reserved memory full")
			return
		}
		s.reject(rs, at, err.Error())
		return
	}
	rs.task = task
	j := &job{
		members: []*reqState{rs}, prio: rs.req.Priority,
		arrival: rs.req.Arrival, leadID: rs.req.ID, coreID: -1,
	}
	s.ready = append(s.ready, j)
	s.decide(at, -1, "admit", rs, "non-secure")
}

// joinableBatch finds an open secure job this request may ride:
// same tenant, model, key, and compiled source digest, with batch
// room, not yet torn down. The digest check is what makes batching
// safe for graph-submitted workloads: two custom graphs may share a
// display name, but only byte-identical lowered sources may share one
// FnSubmit. For registry models the name already implies the digest,
// so the extra check never changes a built-in schedule.
func (s *Scheduler) joinableBatch(rs *reqState) *job {
	if s.cfg.MaxBatch <= 1 {
		return nil
	}
	for _, j := range s.openJobs {
		// A continuous decode batch frees a seat whenever a member
		// leaves, so the bound is on live members; a conventional batch
		// never shrinks.
		seats := len(j.members)
		if j.decode {
			seats = j.remaining()
		}
		if seats >= s.cfg.MaxBatch || j.decode != (rs.req.Decode != nil) {
			continue
		}
		lead := j.lead()
		if j.decode && *lead.req.Decode != *rs.req.Decode {
			continue
		}
		if lead.req.Tenant == rs.req.Tenant && lead.req.Model == rs.req.Model &&
			lead.req.KeyID == rs.req.KeyID &&
			lead.progs[0].SourceDigest == rs.progs[0].SourceDigest {
			return j
		}
	}
	return nil
}

// closeBatch removes a finished/destroyed job from the joinable set.
func (s *Scheduler) closeBatch(j *job) {
	for i, o := range s.openJobs {
		if o == j {
			s.openJobs = append(s.openJobs[:i], s.openJobs[i+1:]...)
			return
		}
	}
}

// submitCost is the one-time monitor-side cost a job pays at first
// load: the fixed verification/attestation handshake plus streaming
// the sealed blob through the unsealing path at DRAM bandwidth.
func (s *Scheduler) submitCost(rs *reqState) sim.Cycle {
	bw := s.deps.Cfg.DRAMBytesPerCycle
	if bw == 0 {
		bw = 1
	}
	cost := DefaultSubmitBaseCycles
	if n := len(rs.req.Sealed); n > 0 {
		cost += sim.Cycle(uint64(n)/bw) + s.deps.Cfg.DRAMLatency
	}
	return cost
}

// retryWaitlist re-attempts admission for memory-starved requests in
// (priority, arrival, id) order after something freed memory.
func (s *Scheduler) retryWaitlist(at sim.Cycle) {
	if len(s.waitlist) == 0 {
		return
	}
	wl := s.waitlist
	s.waitlist = nil
	sort.SliceStable(wl, func(i, j int) bool { return reqLess(wl[i], wl[j]) })
	for _, rs := range wl {
		s.admit(rs, at)
	}
}

// reqLess is the global request order: priority desc, arrival asc, id
// asc.
func reqLess(a, b *reqState) bool {
	if a.req.Priority != b.req.Priority {
		return a.req.Priority > b.req.Priority
	}
	if a.req.Arrival != b.req.Arrival {
		return a.req.Arrival < b.req.Arrival
	}
	return a.req.ID < b.req.ID
}

func jobLess(a, b *job) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	if a.arrival != b.arrival {
		return a.arrival < b.arrival
	}
	return a.leadID < b.leadID
}

// dispatchIdle places jobs on every idle core.
func (s *Scheduler) dispatchIdle(clock sim.Cycle) {
	for _, c := range s.cores {
		if c.cur != nil {
			continue
		}
		s.dispatchOn(c, clock)
	}
}

// canHost reports whether core c could start job j now: resumed jobs
// are affine to their core; fresh non-secure jobs need a free
// translation-window slot.
func (s *Scheduler) canHost(c *coreState, j *job) bool {
	if j.coreID >= 0 && j.coreID != c.id {
		return false
	}
	if !j.secure && !j.mapped && s.deps.Monitor != nil && s.freeSlot(c) < 0 {
		return false
	}
	return true
}

// freeSlot finds the lowest free window slot on c (slot 0 is the
// monitor's secure-task window).
func (s *Scheduler) freeSlot(c *coreState) int {
	for i := 1; i < len(c.slots); i++ {
		if !c.slots[i] {
			return i
		}
	}
	return -1
}

// dispatchOn picks the best placeable job for idle core c and starts
// it. Deadline-expired leads are dropped here, at their first start
// opportunity.
func (s *Scheduler) dispatchOn(c *coreState, clock sim.Cycle) {
	start := c.freeAt
	if clock > start {
		start = clock
	}
	for {
		j, fromResume := s.pickFor(c, start)
		if j == nil {
			return
		}
		s.dropExpired(j, start, c.id)
		if j.done() {
			s.teardown(c, j, start, false)
			continue
		}
		s.startJob(c, j, start, fromResume)
		return
	}
}

// deadlineExpired reports whether member m can no longer meet its
// finish deadline when (re)started at `at`: a never-run member needs
// at least its compute floor; an in-flight or retried member is cut
// once the clock itself passes the deadline (the mid-run miss check in
// advance handles the rest).
func (s *Scheduler) deadlineExpired(m *reqState, at sim.Cycle) bool {
	if m.req.Deadline == 0 {
		return false
	}
	if m.ex == nil && m.attempts == 0 && !m.started {
		return at+m.minExec > m.req.Deadline
	}
	return at > m.req.Deadline
}

// dropExpired retires the members of j that can no longer meet their
// finish deadline at `at`. A decode batch interleaves its members, so
// every expired live member goes; a conventional batch runs them in
// order, so only the expired run at the cursor goes, and each later
// member is checked when the cursor reaches it.
func (s *Scheduler) dropExpired(j *job, at sim.Cycle, core int) {
	if !j.decode {
		for !j.done() && s.deadlineExpired(j.cur(), at) {
			s.drop(j.cur(), at, core, "drop")
			j.rotate()
		}
		return
	}
	for _, m := range j.members {
		if !m.terminal && s.deadlineExpired(m, at) {
			s.drop(m, at, core, "drop")
		}
	}
	if !j.done() && j.cur().terminal {
		j.rotate()
	}
}

// pickFor removes and returns the highest-priority job core c can
// host at cycle `start`, from its resume queue and the shared ready
// queue. Resumed jobs have already run, so they are always eligible; a
// fresh ready job is not schedulable before its lead's arrival (batch
// admission during a slice can put not-yet-arrived jobs in the queue).
func (s *Scheduler) pickFor(c *coreState, start sim.Cycle) (*job, bool) {
	bestRi, bestQi := -1, -1
	for i, j := range c.resume {
		if bestRi < 0 || jobLess(j, c.resume[bestRi]) {
			bestRi = i
		}
	}
	for i, j := range s.ready {
		if j.arrival > start || !s.canHost(c, j) {
			continue
		}
		if bestQi < 0 || jobLess(j, s.ready[bestQi]) {
			bestQi = i
		}
	}
	switch {
	case bestRi < 0 && bestQi < 0:
		return nil, false
	case bestRi >= 0 && (bestQi < 0 || !jobLess(s.ready[bestQi], c.resume[bestRi])):
		j := c.resume[bestRi]
		c.resume = append(c.resume[:bestRi], c.resume[bestRi+1:]...)
		return j, true
	default:
		j := s.ready[bestQi]
		s.ready = append(s.ready[:bestQi], s.ready[bestQi+1:]...)
		return j, false
	}
}

// startJob loads/maps the job on core c and leaves it as c.cur; the
// main loop's advance() runs its slices.
func (s *Scheduler) startJob(c *coreState, j *job, start sim.Cycle, resumed bool) {
	m := j.cur()
	if j.secure {
		rep := s.deps.Monitor.Dispatch(monitor.Call{
			Func: monitor.FnLoad,
			Args: []uint64{uint64(j.monID), 0, uint64(s.deps.Cfg.SpadLines()), uint64(c.id)},
		})
		if rep.Err != nil {
			// Load of a verified task on a healthy core should not fail;
			// fail the whole job closed if it does.
			s.abortJob(c, j, start)
			return
		}
		if j.loadCost > 0 {
			start += j.loadCost
			j.loadCost = 0
		}
		if resumed {
			// Restore the checkpointed accumulator context that the
			// mandatory preemption flush saved.
			start += s.flush(npu.FlushLiveBytes(m.curProg()))
		}
		if j.decode && j.kvLines == 0 {
			// First placement of a decode batch: claim a resident KV
			// window from the monitor's scratchpad partition. The claim
			// streams the (zeroed) backing store through once — the cost
			// model is the same DMA walk a flush pays.
			spec := j.lead().req.Decode
			lineBytes := s.deps.Cfg.SpadLineBytes
			lines := int((spec.KVBytes() + int64(lineBytes) - 1) / int64(lineBytes))
			if maxL := s.deps.Cfg.KVSpadLines() / 4; lines > maxL {
				lines = maxL
			}
			if lines < 1 {
				lines = 1
			}
			rep := s.deps.Monitor.Dispatch(monitor.Call{
				Func: monitor.FnKVAlloc,
				Args: []uint64{uint64(j.monID), uint64(c.id), uint64(lines), uint64(spec.KVBytes())},
			})
			if rep.Err != nil {
				s.abortJob(c, j, start)
				return
			}
			j.kvLines = lines
			start += s.flush(uint64(lines * lineBytes))
			s.decide(start, c.id, "kv_alloc", m, fmt.Sprintf("lines=%d domain=%d", lines, rep.Value))
		}
	} else if s.deps.Monitor != nil && !j.mapped {
		if j.slot == 0 {
			j.slot = s.freeSlot(c)
			if j.slot < 0 {
				// canHost filtered this; defensive re-queue.
				s.ready = append(s.ready, j)
				return
			}
			c.slots[j.slot] = true
		}
		vbase, size := mem.PageWindow(m.curProg().VASpan())
		rep := s.deps.Monitor.Dispatch(monitor.Call{
			Func: monitor.FnMapNonSecure,
			Args: []uint64{uint64(c.id), uint64(j.slot), uint64(vbase), uint64(m.task.Chunk), size},
		})
		if rep.Err != nil {
			s.abortJob(c, j, start)
			return
		}
		j.mapped = true
	}
	j.coreID = c.id
	c.cur = j
	c.freeAt = start
	ev := "dispatch"
	if resumed {
		ev = "resume"
	}
	s.deps.Stats.Inc(sim.CtrSchedDispatches)
	s.decide(start, c.id, ev, m, fmt.Sprintf("prio=%d", j.prio))
}

// advance runs c's current member for one tile slice. A slice that
// completes the member's pass is a pass boundary: a decode member emits
// one token there (and leaves the batch after its last), and the cursor
// rotates to the next live member, where joiners admitted mid-run
// become eligible. The resident KV window claimed in startJob is
// untouched by all of this — only job teardown scrubs it. A slice that
// ends mid-pass is a tile boundary, where a higher-priority job may
// preempt.
func (s *Scheduler) advance(c *coreState) {
	j := c.cur
	m := j.cur()
	if m.ex == nil {
		m.ex = npu.NewExec(c.core, m.curProg(), m.req.ID+10000)
		if !m.started {
			m.started = true
			m.start = c.freeAt
		}
		m.core = c.id
		if m.checkpoint > 0 {
			// Retried member: restart the interrupted pass from its last
			// completed layer boundary and pay the checkpoint-restore
			// flush (for decode, re-deriving the KV state the abort
			// scrubbed).
			m.ex.SkipToLayer(m.checkpoint)
			c.freeAt += s.flush(npu.FlushLiveBytes(m.curProg()))
		}
	}
	end, err := m.ex.RunUntil(c.freeAt, npu.BoundaryTile)
	if err != nil {
		var hang *npu.HangError
		if errors.As(err, &hang) {
			c.freeAt = hang.Detected
		}
		s.faultJob(c, j, c.freeAt)
		return
	}
	c.freeAt = end
	if cl := m.ex.CurrentLayer(); cl > m.checkpoint {
		m.checkpoint = cl // forward progress: a cheaper restart point
	}
	s.admitUpTo(end)

	if m.req.Deadline > 0 && end > m.req.Deadline {
		// Deterministic deadline-miss cut at the tile boundary — the
		// slice that crossed the deadline is the last one this member
		// gets, whether or not it happened to finish.
		s.missDeadline(c, j, end)
		return
	}

	if !m.ex.Done() {
		// §IV-B boundary preemption: a strictly higher-priority placeable
		// job evicts the running one at the tile boundary.
		if s.preemptorWaiting(c, j.prio) {
			s.preempt(c, end)
		}
		return
	}
	m.ex, m.checkpoint = nil, 0
	m.pass++
	if j.decode {
		m.tokenEnds = append(m.tokenEnds, end)
		s.decide(end, c.id, "token", m, fmt.Sprintf("tok=%d/%d", m.pass, len(m.progs)))
	}
	if m.pass == len(m.progs) {
		m.finish = end
		m.terminal, m.completed = true, true
		s.deps.Stats.Inc(sim.CtrSchedCompletions)
		if s.obsLatency != nil {
			s.obsLatency.Observe(int64(end - m.req.Arrival))
		}
		if j.decode {
			// The last token was the member's final output: it leaves the
			// batch, freeing its seat for a joiner.
			s.decide(end, c.id, "leave", m, fmt.Sprintf("tokens=%d", m.pass))
		}
		s.decide(end, c.id, "complete", m, fmt.Sprintf("latency=%d", end-m.req.Arrival))
	}
	s.nextPass(c, j)
}

// nextPass moves j's cursor on after a pass ended at c.freeAt,
// completed or cut. A conventional batch then drops the queued members
// that can no longer finish in time; a decode batch drops nothing at a
// token boundary (an expired member is cut after its next slice, or
// dropped at the batch's next dispatch). A job with no live member left
// is torn down.
func (s *Scheduler) nextPass(c *coreState, j *job) {
	j.rotate()
	if !j.decode {
		s.dropExpired(j, c.freeAt, c.id)
	}
	if j.done() {
		s.teardown(c, j, c.freeAt, false)
	}
}

// preemptorWaiting reports a strictly higher-priority job core c could
// host right now.
func (s *Scheduler) preemptorWaiting(c *coreState, prio Priority) bool {
	for _, o := range c.resume {
		if o.prio > prio {
			return true
		}
	}
	for _, o := range s.ready {
		if o.prio > prio && s.canHost(c, o) {
			return true
		}
	}
	return false
}

// flush charges the DMA walk of moving `bytes` between a scratchpad and
// DRAM — the §IV-B context save, its restore, a KV claim or a KV scrub —
// to the episode's flush total and returns its cycles.
func (s *Scheduler) flush(bytes uint64) sim.Cycle {
	cost := spad.FlushCost(bytes, s.deps.Cfg.DRAMBytesPerCycle, s.deps.Cfg.DRAMLatency, s.deps.Stats)
	s.flushCycles += cost
	return cost
}

// preempt evicts c's current job at a tile boundary. Secure victims
// pay the mandatory flush (monitor scrub + ID-bit reassignment + the
// context save on the critical path); non-secure victims cost nothing
// — their lines stay behind the ID check, which is exactly sNPU's
// Fig. 14 argument.
func (s *Scheduler) preempt(c *coreState, at sim.Cycle) {
	j := c.cur
	m := j.cur()
	m.preempts++
	s.deps.Stats.Inc(sim.CtrSchedPreempts)
	s.deps.Stats.Inc(sim.CtrCtxSwitches)
	if j.secure {
		rep := s.deps.Monitor.Dispatch(monitor.Call{Func: monitor.FnPreempt, Args: []uint64{uint64(j.monID)}})
		if rep.Err != nil {
			s.abortJob(c, j, at)
			return
		}
		c.freeAt = at + s.flush(npu.FlushLiveBytes(m.curProg()))
		s.invalidateWindows(c)
	}
	s.decide(at, c.id, "preempt", m, fmt.Sprintf("prio=%d", j.prio))
	c.resume = append(c.resume, j)
	c.cur = nil
}

// teardown releases a job's residency once it is done (abort false)
// or has failed (abort true). A secure job's resident KV window is
// scrubbed with its task — the monitor zeroes it; this pays the
// streaming cost of walking it — and the task then leaves the monitor:
// by FnUnload when done, by the fail-closed FnAbort when failed, the
// latter only while the monitor still holds the task. Non-secure
// members release their DMA chunk and translation-window slot.
func (s *Scheduler) teardown(c *coreState, j *job, at sim.Cycle, abort bool) {
	if j.secure {
		s.closeBatch(j)
		if j.kvLines > 0 {
			c.freeAt = at + s.flush(uint64(j.kvLines*s.deps.Cfg.SpadLineBytes))
			s.decide(at, c.id, "kv_scrub", j.lead(), fmt.Sprintf("lines=%d", j.kvLines))
			j.kvLines = 0
		}
		args := []uint64{uint64(j.monID)}
		if !abort {
			if rep := s.deps.Monitor.Dispatch(monitor.Call{Func: monitor.FnUnload, Args: args}); rep.Err == nil {
				s.invalidateWindows(c)
			}
		} else if s.deps.Monitor.HasTask(j.monID) {
			_ = s.deps.Monitor.Dispatch(monitor.Call{Func: monitor.FnAbort, Args: args})
			s.invalidateWindows(c)
		}
	} else {
		for _, m := range j.members {
			if m.task != nil {
				_ = s.deps.Driver.Release(m.task)
				m.task = nil
			}
		}
		if j.slot > 0 {
			c.slots[j.slot] = false
			j.slot = 0
		}
	}
	s.memFreed = true
	if c.cur == j {
		c.cur = nil
	}
}

// invalidateWindows records that the monitor's ClearTask wiped every
// translation register on c: resident non-secure jobs must remap
// before their next slice.
func (s *Scheduler) invalidateWindows(c *coreState) {
	for _, o := range c.resume {
		if !o.secure {
			o.mapped = false
		}
	}
}

// abortMember retires one member with the opaque sentinel. Retryable
// records the failure class (fault vs isolation) for the serve layer's
// status mapping; the error string is identical either way.
func (s *Scheduler) abortMember(m *reqState, at sim.Cycle, core int, retryable bool) {
	m.terminal, m.aborted = true, true
	m.retryable = retryable
	m.finish = at
	m.errMsg = ErrTaskAborted.Error()
	s.deps.Stats.Inc(sim.CtrSchedAborts)
	s.decide(at, core, "abort", m, "")
}

// abortJob is the fail-closed path for monitor-call failures: the
// monitor scrubs and destroys the secure task; every unfinished member
// surfaces only the opaque ErrTaskAborted, with no retry — a task the
// monitor refused is not coming back. The cause is never surfaced.
func (s *Scheduler) abortJob(c *coreState, j *job, at sim.Cycle) {
	s.teardown(c, j, at, true)
	for _, m := range j.members {
		if !m.terminal {
			s.abortMember(m, at, c.id, false)
		}
	}
}

// faultJob handles an execution fault (hang, unrecovered data error).
// The fail-closed abort is paid exactly as abortJob — scratchpads
// scrubbed, task destroyed, cause never surfaced — and then policy
// decides what the untrusted side does next: secure members with
// restart budget left re-enter the queue after an exponential backoff
// and restart from their last completed layer checkpoint through a
// fresh FnSubmit; everyone else is abandoned with the same opaque
// error, marked Retryable so clients know a resubmission is worthwhile.
func (s *Scheduler) faultJob(c *coreState, j *job, at sim.Cycle) {
	s.teardown(c, j, at, true)
	retry := j.secure && s.cfg.MaxRestarts > 0
	for _, m := range j.members {
		if m.terminal {
			continue
		}
		m.ex = nil
		if !retry || m.attempts >= s.cfg.MaxRestarts {
			s.abortMember(m, at, c.id, j.secure)
			continue
		}
		m.attempts++
		retryAt := at + RetryBackoff(m.attempts)
		if m.req.Deadline > 0 && retryAt >= m.req.Deadline {
			// The backoff alone blows the deadline: retrying is futile.
			s.abortMember(m, at, c.id, true)
			continue
		}
		m.retryAt = retryAt
		s.retryQ = append(s.retryQ, m)
		s.deps.Stats.Inc(sim.CtrSchedRetries)
		s.decide(at, c.id, "retry", m,
			fmt.Sprintf("attempt=%d backoff-until=%d checkpoint=%d", m.attempts, retryAt, m.checkpoint))
	}
	sort.SliceStable(s.retryQ, func(a, b int) bool {
		x, y := s.retryQ[a], s.retryQ[b]
		if x.retryAt != y.retryAt {
			return x.retryAt < y.retryAt
		}
		return x.req.ID < y.req.ID
	})
}

// missDeadline cuts c's running member at the tile boundary that
// crossed its finish deadline. The cut is a policy decision, but its
// isolation consequence is not negotiable: a secure member's live
// accumulator state is flushed (§IV-B) before the core is reused. The
// member's batch-mates keep the core, and a decode batch its resident
// KV window.
func (s *Scheduler) missDeadline(c *coreState, j *job, at sim.Cycle) {
	m := j.cur()
	if j.secure {
		c.freeAt = at + s.flush(npu.FlushLiveBytes(m.curProg()))
	}
	s.drop(m, at, c.id, "deadline_miss")
	if j.decode {
		s.decide(at, c.id, "leave", m, fmt.Sprintf("tokens=%d", m.pass))
	}
	s.nextPass(c, j)
}

// drop retires a member that can no longer meet its finish deadline:
// ev is "drop" for one cut before it (re)starts, "deadline_miss" for
// one cut mid-run.
func (s *Scheduler) drop(m *reqState, at sim.Cycle, core int, ev string) {
	m.terminal, m.dropped = true, true
	m.finish = at
	m.ex = nil
	m.errMsg = "sched: deadline missed"
	s.deps.Stats.Inc(sim.CtrSchedDeadlineMisses)
	s.decide(at, core, ev, m, fmt.Sprintf("deadline=%d", m.req.Deadline))
}

func (s *Scheduler) reject(rs *reqState, at sim.Cycle, msg string) {
	rs.terminal, rs.rejected = true, true
	rs.errMsg = msg
	s.deps.Stats.Inc(sim.CtrSchedRejects)
	s.decide(at, -1, "reject", rs, msg)
}

// rejectStranded fails every leftover request when no placement can
// ever succeed (e.g. a secure model larger than secure memory with
// nothing left to free). Run calls it only once nextPending found no
// arrival and no retry due, so the retry queue is already empty.
func (s *Scheduler) rejectStranded(at sim.Cycle) {
	for _, rs := range s.waitlist {
		s.reject(rs, at, "no capacity")
	}
	s.waitlist = nil
	for _, j := range s.ready {
		if j.secure {
			s.closeBatch(j)
			_ = s.deps.Monitor.Dispatch(monitor.Call{Func: monitor.FnUnload, Args: []uint64{uint64(j.monID)}})
		}
		for _, m := range j.members {
			if !m.terminal {
				s.reject(m, at, "no capacity")
			}
		}
	}
	s.ready = nil
}

func (s *Scheduler) decide(at sim.Cycle, core int, ev string, rs *reqState, detail string) {
	d := Decision{
		Cycle: at, Core: core, Event: ev,
		Req: rs.req.ID, Tenant: rs.req.Tenant, Model: rs.req.Model, Detail: detail,
	}
	s.decisions = append(s.decisions, d)
	if s.cfg.OnDecision != nil {
		s.cfg.OnDecision(d)
	}
}

func (s *Scheduler) assemble() *Report {
	rep := &Report{FlushCycles: s.flushCycles}
	ordered := append([]*reqState(nil), s.all...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].req.ID < ordered[j].req.ID })
	for _, rs := range ordered {
		r := Result{
			ID: rs.req.ID, Tenant: rs.req.Tenant, Model: rs.req.Model,
			Secure: rs.req.Secure, Arrival: rs.req.Arrival,
			Start: rs.start, Finish: rs.finish, Core: rs.core,
			Preemptions: rs.preempts, Batched: rs.batched,
			Retries: rs.attempts, Retryable: rs.retryable,
			Completed: rs.completed, Dropped: rs.dropped,
			Aborted: rs.aborted, Rejected: rs.rejected,
			Shed: rs.shed, Err: rs.errMsg,
			Tokens: len(rs.tokenEnds),
		}
		rep.Results = append(rep.Results, r)
		if len(rs.tokenEnds) > 0 {
			if rep.TokenTimes == nil {
				rep.TokenTimes = make(map[int][]sim.Cycle)
			}
			rep.TokenTimes[rs.req.ID] = append([]sim.Cycle(nil), rs.tokenEnds...)
			rep.Tokens += len(rs.tokenEnds)
		}
		rep.Preemptions += rs.preempts
		rep.Retries += rs.attempts
		switch {
		case rs.completed:
			rep.Completed++
			if rs.batched {
				rep.BatchedRuns++
			}
			if rs.attempts > 0 {
				rep.Recovered++
			}
			if rs.finish > rep.Makespan {
				rep.Makespan = rs.finish
			}
		case rs.dropped:
			rep.Dropped++
		case rs.aborted:
			rep.Aborted++
		case rs.shed:
			rep.Shed++
		case rs.rejected:
			rep.Rejected++
		}
		// Feed the circuit breaker in result order — deterministic, and
		// quarantine decisions land in this episode's log.
		if s.cfg.Breaker.observe(rs.req.Tenant, rs.aborted, rs.completed) {
			s.decide(rs.finish, -1, "quarantine", rs,
				fmt.Sprintf("cooldown=%d episodes", s.cfg.Breaker.cooldown()))
		}
	}
	s.cfg.Breaker.endEpisode()
	rep.Decisions = s.decisions
	return rep
}
