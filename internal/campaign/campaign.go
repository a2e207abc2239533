// Package campaign executes decoded adversarial scenarios — tenant
// schedules × seeded chaos plans × hostile monitor call sequences ×
// serve-daemon drain timing — against a fresh System and asserts the
// §IV-B isolation invariants at every transition: flush-on-preempt
// with no LeftoverLocals residue, fail-closed opaque aborts,
// attestation binding, deadline and retry-budget accounting, and the
// trampoline's refusal of every window into secure memory. The
// package is the execution engine behind FuzzCampaign: Decode maps
// fuzz bytes to a Scenario, Execute runs it, and the scheduler
// decision-log hash plus the monitor transition bitmap feed novelty
// back to the coverage engine.
package campaign

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"

	snpu "repro"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/monitor"
	"repro/internal/npu"
	"repro/internal/sched"
	"repro/internal/schedgen"
	"repro/internal/serve"
	"repro/internal/spad"
	"repro/internal/tee"
	"repro/internal/workload"
)

// ErrInvariant marks a scenario outcome that violates one of the
// campaign's security or determinism invariants — the signal the fuzz
// target escalates to a crash.
var ErrInvariant = errors.New("campaign: invariant violated")

// Outcome is the fuzz-observable state of one executed scenario.
type Outcome struct {
	Report *sched.Report
	// Hash is the FNV-1a digest of the decision log; Bitmap is the
	// monitor's transition-coverage bitmap after every leg ran. Both
	// feed the coverage folder so novel interleavings grow the corpus.
	Hash   uint64
	Bitmap uint64
}

// Run decodes and executes in one step.
func Run(data []byte) (*Outcome, error) { return Execute(Decode(data)) }

// measOf is the owner's expected measurement of a registry model, from
// the process-wide compile cache.
func measOf(model string) ([32]byte, error) {
	w, err := workload.Lookup(model)
	if err != nil {
		return [32]byte{}, err
	}
	prog, _, err := npu.CompileCached(w, snpu.DefaultConfig().NPU, 0, npu.DefaultLayout)
	if err != nil {
		return [32]byte{}, err
	}
	return prog.OwnerMeasurement(), nil
}

// probe is the LeftoverLocals invariant without a testing.T: it
// plants a position-dependent secret into every secure task's
// scratchpad at dispatch/resume and asserts at every preempt, abort,
// and retry that the normal world cannot see it. Violations are
// collected (the decision callback cannot fail) and surfaced after
// the episode.
type probe struct {
	sys        *snpu.System
	cores      []int
	line       int
	secret     []byte
	violations []string
}

func (p *probe) violatef(format string, args ...any) {
	p.violations = append(p.violations, fmt.Sprintf(format, args...))
}

func (p *probe) onDecision(d sched.Decision) {
	switch d.Event {
	case "dispatch", "resume":
		if d.Core >= 0 {
			p.plant(d)
		}
	case "preempt", "abort", "retry":
		if d.Core >= 0 {
			p.probeCore(d.Core, fmt.Sprintf("%s of req %d @%d", d.Event, d.Req, d.Cycle))
		}
	}
}

func (p *probe) plant(d sched.Decision) {
	core, err := p.sys.NPU().Core(d.Core)
	if err != nil {
		p.violatef("plant: core %d: %v", d.Core, err)
		return
	}
	if core.Domain() != spad.SecureDomain {
		return // non-secure dispatch; nothing to plant
	}
	buf := make([]byte, core.Scratchpad().LineBytes())
	copy(buf, p.secret)
	if err := core.Scratchpad().Write(spad.SecureDomain, p.line, buf); err != nil {
		p.violatef("planting secret on core %d: %v", d.Core, err)
	}
}

func (p *probe) probeCore(coreID int, when string) {
	core, err := p.sys.NPU().Core(coreID)
	if err != nil {
		p.violatef("%s: core %d: %v", when, coreID, err)
		return
	}
	if n := core.Scratchpad().CountDomain(spad.SecureDomain); n != 0 {
		p.violatef("%s: core %d kept %d secure scratchpad lines", when, coreID, n)
	}
	if n := core.Accumulator().CountDomain(spad.SecureDomain); n != 0 {
		p.violatef("%s: core %d kept %d secure accumulator lines", when, coreID, n)
	}
	if core.Domain() != spad.NonSecure {
		p.violatef("%s: core %d still in domain %d", when, coreID, core.Domain())
	}
	buf := make([]byte, core.Scratchpad().LineBytes())
	if err := core.Scratchpad().Read(spad.NonSecure, p.line, buf); err == nil {
		if bytes.Contains(buf, p.secret) {
			p.violatef("%s: secret readable from the normal world on core %d", when, coreID)
		}
	}
}

func (p *probe) probeAll(when string) {
	for _, ci := range p.cores {
		p.probeCore(ci, when)
	}
}

// Execute runs one scenario end to end. The returned error (wrapping
// ErrInvariant) reports every violated invariant; a nil error means
// the adversarial schedule was survived with all guarantees intact.
func Execute(sc Scenario) (*Outcome, error) {
	sys, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("campaign: boot: %w", err)
	}
	if sc.Chaos != nil {
		rates := fault.UniformRates(float64(sc.Chaos.PerMillion))
		if sc.Chaos.Transient {
			rates = fault.TransientRates(float64(sc.Chaos.PerMillion))
		}
		sys.InstallFaultPlan(fault.Generate(sc.Seed, 200_000_000, rates))
	}
	sealedBy, err := schedgen.ProvisionTenants(sys, sc.Seed, sc.Tenants, func(ti int) []byte {
		return []byte(fmt.Sprintf("campaign model %d/%d", sc.Seed, ti))
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: provision: %w", err)
	}

	cores := make([]int, sc.Cores)
	for i := range cores {
		cores[i] = i
	}
	secret := make([]byte, 16)
	for i := range secret {
		secret[i] = 0xA5 ^ byte(sc.Seed) ^ byte(i*37+1)
	}
	p := &probe{sys: sys, cores: cores, line: 3, secret: secret}

	cfg := sched.Config{
		Cores:             cores,
		MaxBatch:          sc.MaxBatch,
		MaxRestarts:       sc.MaxRestarts,
		MaxQueuePerTenant: sc.MaxQueuePerTenant,
		OnDecision:        p.onDecision,
	}
	if sc.Breaker {
		cfg.Breaker = sched.NewBreaker(0, 0)
	}
	s, err := sys.NewScheduler(cfg)
	if err != nil {
		return nil, fmt.Errorf("campaign: scheduler: %w", err)
	}

	secureModels := map[string]bool{}
	accepted := 0
	for _, r := range sc.Requests {
		if r.Secure && r.Decode == nil {
			r.Sealed = sealedBy[r.KeyID]
			secureModels[r.Model] = true
		}
		switch err := s.Submit(r); {
		case err == nil:
			accepted++
		case errors.Is(err, sched.ErrQueueFull), errors.Is(err, sched.ErrTenantQuarantined):
			// Legitimate backpressure refusals; no result owed.
		default:
			p.violatef("submit of decoded req %d refused: %v", r.ID, err)
		}
	}

	rep, err := s.Run()
	if err != nil {
		return nil, fmt.Errorf("%w: episode failed: %v", ErrInvariant, err)
	}

	checkResults(rep, sc, accepted, p)
	checkDecisions(rep, sc, p)
	p.probeAll("end-of-run")
	if n := sys.Monitor().QueueLen(); n != 0 {
		p.violatef("end-of-run: %d tasks still queued in the monitor", n)
	}
	// KV hygiene: every resident KV window must have been released (and
	// scrubbed) by the time the episode drains — a surviving region is a
	// leaked tenant cache.
	if regions := sys.Monitor().KVRegions(); len(regions) != 0 {
		p.violatef("end-of-run: %d KV windows still resident: %+v", len(regions), regions)
	}
	checkAttestation(sys, sc, secureModels, p)

	runMonitorLeg(sys, sc, p)
	if sc.Serve != ServeNone {
		runServeLeg(sys, sc, sealedBy, p)
	}

	out := &Outcome{Report: rep, Hash: rep.DecisionHash(), Bitmap: sys.Monitor().TransitionBitmap()}
	if len(p.violations) > 0 {
		return out, fmt.Errorf("%w:\n  %s", ErrInvariant, strings.Join(p.violations, "\n  "))
	}
	return out, nil
}

// checkResults asserts the per-request terminal contracts. accepted
// counts submissions the scheduler admitted: backpressure-refused
// requests owe no result, but every accepted one (including later
// shed victims) must reach exactly one terminal state.
func checkResults(rep *sched.Report, sc Scenario, accepted int, p *probe) {
	if len(rep.Results) != accepted {
		p.violatef("results for %d of %d accepted requests", len(rep.Results), accepted)
	}
	deadline := map[int]int64{}
	decodeSteps := map[int]int{}
	for _, r := range sc.Requests {
		deadline[r.ID] = int64(r.Deadline)
		if r.Decode != nil {
			decodeSteps[r.ID] = r.Decode.Steps
		}
	}
	for _, r := range rep.Results {
		states := 0
		for _, b := range []bool{r.Completed, r.Dropped, r.Aborted, r.Rejected, r.Shed} {
			if b {
				states++
			}
		}
		if states != 1 {
			p.violatef("req %d in %d terminal states: %+v", r.ID, states, r)
		}
		if r.Completed {
			if r.Finish <= r.Start || r.Start < r.Arrival {
				p.violatef("req %d incoherent span: %+v", r.ID, r)
			}
			if dl := deadline[r.ID]; dl > 0 && int64(r.Finish) > dl {
				p.violatef("req %d completed at %d past its deadline %d", r.ID, r.Finish, dl)
			}
			// A completed decode request streams its full token budget:
			// the prefill token plus one per decode step — no more, no
			// fewer, regardless of batching, joins, or preemptions.
			if steps, ok := decodeSteps[r.ID]; ok && r.Tokens != steps+1 {
				p.violatef("decode req %d completed with %d tokens, want %d", r.ID, r.Tokens, steps+1)
			}
			if times := rep.TokenTimes[r.ID]; len(times) > 0 {
				for i := 1; i < len(times); i++ {
					if times[i] <= times[i-1] {
						p.violatef("decode req %d token %d retired at %d, not after token %d at %d",
							r.ID, i, times[i], i-1, times[i-1])
					}
				}
				if last := times[len(times)-1]; int64(last) != int64(r.Finish) {
					p.violatef("decode req %d last token at %d but finished at %d", r.ID, last, r.Finish)
				}
			}
		}
		if r.Aborted && r.Err != sched.ErrTaskAborted.Error() {
			p.violatef("req %d aborted with non-opaque error %q", r.ID, r.Err)
		}
		if r.Err != "" {
			for _, leak := range []string{"hang", "watchdog", "cycle"} {
				if strings.Contains(r.Err, leak) {
					p.violatef("req %d error leaks hardware detail %q: %q", r.ID, leak, r.Err)
				}
			}
		}
		if r.Retries > sc.MaxRestarts {
			p.violatef("req %d consumed %d retries over budget %d", r.ID, r.Retries, sc.MaxRestarts)
		}
	}
}

// checkDecisions asserts causality on the decision log: no request is
// admitted, batched, dispatched, resumed, or completed before its own
// arrival cycle (the admit-early regression class). Shed decisions
// are exempt — a victim is shed at the *newcomer's* arrival, which
// can legitimately precede the victim's own.
func checkDecisions(rep *sched.Report, sc Scenario, p *probe) {
	arrival := map[int]int64{}
	for _, r := range sc.Requests {
		arrival[r.ID] = int64(r.Arrival)
	}
	for _, d := range rep.Decisions {
		switch d.Event {
		case "admit", "batch", "dispatch", "resume", "complete",
			"join", "token", "leave", "kv_alloc":
			if at, ok := arrival[d.Req]; ok && int64(d.Cycle) < at {
				p.violatef("decision %q for req %d at cycle %d, before its arrival %d",
					d.Event, d.Req, d.Cycle, at)
			}
		}
	}
}

// checkAttestation asserts the binding invariant on one secure model
// of the schedule: the right (image, nonce) verifies, a different
// image is refused, a stale nonce is refused.
func checkAttestation(sys *snpu.System, sc Scenario, secureModels map[string]bool, p *probe) {
	var model string
	for m := range secureModels {
		if model == "" || m < model {
			model = m // deterministic pick
		}
	}
	if model == "" {
		return
	}
	nonce := uint64(sc.Seed)*2654435761 + 1
	meas, err := measOf(model)
	if err != nil {
		p.violatef("attestation: measure %s: %v", model, err)
		return
	}
	rep, err := sys.Machine().Attest(sys.Machine().SecureContext(), tee.Measurement(meas), nonce)
	if err != nil {
		p.violatef("attestation quote failed: %v", err)
		return
	}
	if err := sys.VerifyAttestation(rep, meas, nonce); err != nil {
		p.violatef("attestation of the right image failed: %v", err)
	}
	other := schedgen.Models[0]
	if other == model {
		other = schedgen.Models[1]
	}
	otherMeas, err := measOf(other)
	if err != nil {
		p.violatef("attestation: measure %s: %v", other, err)
		return
	}
	if err := sys.VerifyAttestation(rep, otherMeas, nonce); err == nil {
		p.violatef("report for %s verified as %s", model, other)
	}
	if err := sys.VerifyAttestation(rep, meas, nonce+1); err == nil {
		p.violatef("report verified with a stale nonce")
	}
}

// runMonitorLeg drives the decoded hostile trampoline calls against
// the post-episode monitor. Nothing here may panic; a window into
// secure memory must always be refused; and since no verified task
// can exist any more, every core must still probe clean afterwards.
func runMonitorLeg(sys *snpu.System, sc Scenario, p *probe) {
	for i, mc := range sc.MonCalls {
		call, wantsSecure := buildCall(mc)
		rep := sys.Monitor().Dispatch(call)
		if wantsSecure && rep.Err == nil {
			p.violatef("mon call %d: window into secure memory accepted: %+v", i, call)
		}
	}
	if len(sc.MonCalls) > 0 {
		p.probeAll("after hostile monitor calls")
		if n := sys.Monitor().QueueLen(); n != 0 {
			p.violatef("hostile calls left %d tasks queued", n)
		}
	}
}

// buildCall maps a decoded MonCall onto a concrete trampoline call.
// The second return is true when the call is a translation window
// aimed into the secure region (which the monitor must refuse).
func buildCall(mc MonCall) (monitor.Call, bool) {
	a0, a1, a2 := uint64(mc.A[0]), uint64(mc.A[1]), uint64(mc.A[2])
	switch mc.Fn {
	case monitor.FnSubmit:
		// Nil program: the verifier must reject, never crash.
		return monitor.Call{Func: monitor.FnSubmit, KeyID: "t0-key"}, false
	case monitor.FnLoad:
		return monitor.Call{Func: monitor.FnLoad, Args: []uint64{a0 % 8, 0, 8, a1 % 4}}, false
	case monitor.FnUnload, monitor.FnAbort, monitor.FnPreempt:
		return monitor.Call{Func: mc.Fn, Args: []uint64{a0 % 8}}, false
	case monitor.FnQueueLen:
		return monitor.Call{Func: monitor.FnQueueLen}, false
	case monitor.FnMapNonSecure:
		pbase := uint64(experiments.ReservedBase) + a2<<12
		secure := a2&1 != 0
		if secure {
			pbase = uint64(experiments.SecureBase) + a2<<12
		}
		return monitor.Call{Func: monitor.FnMapNonSecure, Args: []uint64{
			a0 % 4, 1 + a1%15, uint64(mem.VirtAddr(0x1000 * (1 + a2))), pbase, 0x1000,
		}}, secure
	default:
		return monitor.Call{Func: mc.Fn}, false
	}
}

// runServeLeg replays the schedule through the HTTP daemon and holds
// it to the backpressure contract: well-formed traffic never sees a
// non-mapped status, a draining daemon refuses every submit with 503,
// and terminal results map to their documented codes.
func runServeLeg(sys *snpu.System, sc Scenario, sealedBy map[string][]byte, p *probe) {
	cores := make([]int, sc.Cores)
	for i := range cores {
		cores[i] = i
	}
	srv, err := serve.New(sys, serve.Config{
		Cores:             cores,
		MaxBatch:          sc.MaxBatch,
		MaxRestarts:       sc.MaxRestarts,
		MaxQueuePerTenant: sc.MaxQueuePerTenant,
	})
	if err != nil {
		p.violatef("serve: boot: %v", err)
		return
	}
	h := srv.Handler()
	do := func(method, path string, body any) *httptest.ResponseRecorder {
		var rd *strings.Reader
		if body != nil {
			raw, _ := json.Marshal(body)
			rd = strings.NewReader(string(raw))
		} else {
			rd = strings.NewReader("")
		}
		req := httptest.NewRequest(method, path, rd)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 && rec.Code != http.StatusServiceUnavailable &&
			rec.Code != http.StatusGatewayTimeout {
			p.violatef("serve: %s %s -> %d: %.200s", method, path, rec.Code, rec.Body.String())
		}
		return rec
	}

	if sc.Serve == ServeDrained {
		srv.Drain()
	}
	accepted := 0
	for _, r := range sc.Requests {
		body := map[string]any{
			"id": r.ID, "tenant": r.Tenant, "model": r.Model,
			"arrival": uint64(r.Arrival),
		}
		if r.Deadline > 0 {
			body["deadline"] = uint64(r.Deadline)
		}
		if r.Secure {
			body["secure"] = true
			if r.Decode == nil {
				body["key_id"] = r.KeyID
				body["sealed_b64"] = b64(sealedBy[r.KeyID])
			}
		}
		if r.Decode != nil {
			delete(body, "model")
			body["decode"] = map[string]any{
				"layers": r.Decode.Layers, "hidden": r.Decode.Hidden,
				"heads": r.Decode.Heads, "ffn": r.Decode.FFN,
				"prompt": r.Decode.Prompt, "steps": r.Decode.Steps,
			}
		}
		rec := do("POST", "/v1/submit", body)
		switch sc.Serve {
		case ServeDrained:
			if rec.Code != http.StatusServiceUnavailable {
				p.violatef("serve: draining daemon answered submit with %d, want 503", rec.Code)
			}
			if rec.Header().Get("Retry-After") == "" {
				p.violatef("serve: drain refusal without Retry-After")
			}
		default:
			if rec.Code == http.StatusAccepted {
				accepted++
			} else if rec.Code != http.StatusTooManyRequests {
				p.violatef("serve: well-formed submit req %d -> %d: %.200s", r.ID, rec.Code, rec.Body.String())
			}
		}
	}

	switch sc.Serve {
	case ServeRun:
		if accepted > 0 {
			if rec := do("POST", "/v1/run", nil); rec.Code != http.StatusOK {
				p.violatef("serve: run -> %d: %.200s", rec.Code, rec.Body.String())
			}
		}
		for _, r := range sc.Requests {
			rec := do("GET", fmt.Sprintf("/v1/result?id=%d", r.ID), nil)
			switch rec.Code {
			// 400 is serve's mapping for requests rejected at admission
			// (e.g. an infeasible deadline): a legal terminal outcome.
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusGone,
				http.StatusServiceUnavailable, http.StatusGatewayTimeout, http.StatusTooManyRequests:
			default:
				p.violatef("serve: result %d -> unmapped status %d: %.200s", r.ID, rec.Code, rec.Body.String())
			}
		}
	case ServeFinish:
		if _, err := srv.DrainAndFinish(); err != nil {
			p.violatef("serve: DrainAndFinish: %v", err)
		}
	}
	if rec := do("GET", "/v1/status", nil); rec.Code != http.StatusOK {
		p.violatef("serve: status -> %d", rec.Code)
	}
	if rec := do("GET", "/healthz", nil); rec.Code != http.StatusOK {
		p.violatef("serve: healthz -> %d", rec.Code)
	}
}

func b64(b []byte) string { return base64.StdEncoding.EncodeToString(b) }
