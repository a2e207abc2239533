// Package serve is the HTTP/JSON front end of the multi-tenant
// scheduler (internal/sched): tenants provision sealing keys, submit
// secure and non-secure inference requests, and trigger deterministic
// scheduling episodes over the simulated SoC. The daemon itself is
// beyond the paper; it exists to drive the §IV-B scheduling path the
// way a serving stack would, and to give the fuzzer a hostile-input
// surface that must fail closed (malformed bodies, oversized sealed
// models, duplicate IDs are all 4xx, never panics, never monitor
// state).
package serve

import (
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"

	snpu "repro"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// MaxBodyBytes caps any request body: the sealed-model cap plus
// base64 expansion plus JSON framing headroom.
const MaxBodyBytes = sched.MaxSealedBytes*4/3 + 64*1024

// RetryAfterSeconds is the deterministic Retry-After hint sent with
// every 429/503 backpressure response. It is advisory pacing for
// clients, not simulated time, so one constant fits all.
const RetryAfterSeconds = 1

// Config tunes the daemon's scheduler episodes.
type Config struct {
	// Cores, MaxBatch pass through to sched.Config.
	Cores    []int
	MaxBatch int
	// MaxRestarts, MaxQueuePerTenant pass the resilience policy
	// through to sched.Config (zero = disabled).
	MaxRestarts       int
	MaxQueuePerTenant int
	// BreakerThreshold enables the per-tenant circuit breaker (>0):
	// a tenant whose tasks abort Threshold times in a row sits out
	// BreakerCooldown episodes; its submissions get 503 + Retry-After.
	BreakerThreshold int
	BreakerCooldown  int
	// Models registers custom (graph-IR-derived) workloads that clients
	// may then submit by name, exactly like built-ins. New validates
	// each one and refuses duplicates or built-in name collisions.
	Models []workload.Workload
}

// Server accumulates submissions and runs them as scheduler episodes.
// It serializes all scheduler access behind one mutex: the simulated
// SoC is single-clocked, so concurrent HTTP clients see atomic
// submit/run semantics.
type Server struct {
	mu      sync.Mutex
	sys     *snpu.System
	cfg     Config
	sched   *sched.Scheduler
	breaker *sched.Breaker
	nextID  int

	// draining seals admission: submits and key provisioning refuse
	// with 503 + Retry-After while in-flight work finishes.
	draining bool

	// results persists every terminal outcome across episodes so
	// GET /v1/result can map it to a status after the episode ran;
	// pending tracks accepted-but-not-yet-run ids.
	results map[int]sched.Result
	pending map[int]bool

	// models holds the registered custom workloads by name.
	models map[string]workload.Workload

	episodes  int
	completed int
	rejected  int
	dropped   int
	aborted   int
	shed      int
	recovered int
	last      *sched.Report
}

// New wraps a booted System. The system's observability layer (if
// enabled) feeds GET /metrics; the serve.shed counter counts into the
// system's Stats.
func New(sys *snpu.System, cfg Config) (*Server, error) {
	s := &Server{
		sys: sys, cfg: cfg, nextID: 1,
		results: make(map[int]sched.Result),
		pending: make(map[int]bool),
		models:  make(map[string]workload.Workload),
	}
	for _, m := range cfg.Models {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("serve: registered model %q: %w", m.Name, err)
		}
		if _, err := workload.Lookup(m.Name); err == nil {
			return nil, fmt.Errorf("serve: registered model %q shadows a built-in", m.Name)
		}
		if _, dup := s.models[m.Name]; dup {
			return nil, fmt.Errorf("serve: registered model %q listed twice", m.Name)
		}
		s.models[m.Name] = m.Clone()
	}
	if cfg.BreakerThreshold > 0 {
		s.breaker = sched.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
	if err := s.resetScheduler(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Server) resetScheduler() error {
	sc, err := s.sys.NewScheduler(sched.Config{
		Cores:             s.cfg.Cores,
		MaxBatch:          s.cfg.MaxBatch,
		MaxRestarts:       s.cfg.MaxRestarts,
		MaxQueuePerTenant: s.cfg.MaxQueuePerTenant,
		Breaker:           s.breaker,
	})
	if err != nil {
		return err
	}
	s.sched = sc
	return nil
}

// Handler builds the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/keys", s.handleKeys)
	mux.HandleFunc("/v1/submit", s.handleSubmit)
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/result", s.handleResult)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/status", s.handleStatus)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return http.MaxBytesHandler(mux, MaxBodyBytes)
}

// SubmitRequest is the POST /v1/submit body.
type SubmitRequest struct {
	// ID is optional; 0 lets the server assign the next free one.
	ID       int    `json:"id,omitempty"`
	Tenant   string `json:"tenant"`
	Model    string `json:"model"`
	Secure   bool   `json:"secure,omitempty"`
	Priority int    `json:"priority,omitempty"`
	Arrival  uint64 `json:"arrival,omitempty"`
	Deadline uint64 `json:"deadline,omitempty"`
	KeyID    string `json:"key_id,omitempty"`
	// SealedB64 is the base64-encoded sealed model blob.
	SealedB64 string `json:"sealed_b64,omitempty"`
	// Graph, when present, is an inline graph-IR document (see
	// internal/graph) compiled server-side; it replaces Model, which
	// then serves as an optional display label. Invalid IR — syntax,
	// unknown fields or ops, shape errors, cycles — is a 400; nothing
	// reaches the scheduler.
	Graph json.RawMessage `json:"graph,omitempty"`
	// Decode, when present, submits an autoregressive decode request:
	// one prefill pass over the prompt plus Steps single-token passes
	// against a monitor-resident KV window. Secure-only (the KV window
	// is ID-bit-tagged secure state) and exclusive with Graph. The
	// completed result's "tokens" field counts emitted tokens.
	Decode *DecodeParams `json:"decode,omitempty"`
}

// DecodeParams mirrors workload.DecodeSpec for the wire; zero Layers
// and FFN take DecodeSpec.WithDefaults, as the graph IR's Decode op
// does.
type DecodeParams struct {
	Layers int `json:"layers,omitempty"`
	Hidden int `json:"hidden"`
	Heads  int `json:"heads"`
	FFN    int `json:"ffn,omitempty"`
	Prompt int `json:"prompt"`
	Steps  int `json:"steps"`
}

func (p *DecodeParams) spec() *workload.DecodeSpec {
	spec := workload.DecodeSpec(*p).WithDefaults()
	return &spec
}

// KeyRequest is the POST /v1/keys body.
type KeyRequest struct {
	KeyID  string `json:"key_id"`
	KeyB64 string `json:"key_b64"`
}

// RunReport is the POST /v1/run response: the episode's results plus
// the rendered decision log, both deterministic for a given submitted
// trace.
type RunReport struct {
	Episode     int            `json:"episode"`
	Results     []sched.Result `json:"results"`
	DecisionLog []string       `json:"decision_log"`
	Makespan    sim.Cycle      `json:"makespan"`
	FlushCycles sim.Cycle      `json:"flush_cycles"`
	Completed   int            `json:"completed"`
	Rejected    int            `json:"rejected"`
	Dropped     int            `json:"dropped"`
	Aborted     int            `json:"aborted"`
	Shed        int            `json:"shed"`
	Retries     int            `json:"retries"`
	Recovered   int            `json:"recovered"`
	Preemptions int            `json:"preemptions"`
	BatchedRuns int            `json:"batched_runs"`
	// Tokens is the episode's total decode-token output; per-request
	// counts ride in each result's "tokens" field.
	Tokens int `json:"tokens,omitempty"`
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// writeBackpressure is writeErr plus the deterministic Retry-After
// hint: every refusal the client should retry (queue full, tenant
// quarantine, drain) carries the same advisory pacing.
func writeBackpressure(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Retry-After", fmt.Sprintf("%d", RetryAfterSeconds))
	writeErr(w, code, format, args...)
}

// decode parses a JSON body, failing closed on syntax errors, unknown
// fields, trailing garbage, and oversized payloads.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", MaxBodyBytes)
			return false
		}
		writeErr(w, http.StatusBadRequest, "bad json: %v", err)
		return false
	}
	if dec.More() {
		writeErr(w, http.StatusBadRequest, "trailing data after json body")
		return false
	}
	return true
}

func (s *Server) handleKeys(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req KeyRequest
	if !decode(w, r, &req) {
		return
	}
	key, err := base64.StdEncoding.DecodeString(req.KeyB64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "key_b64: %v", err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		writeBackpressure(w, http.StatusServiceUnavailable, "draining: admission sealed")
		return
	}
	if s.sys.Monitor() == nil {
		writeErr(w, http.StatusNotImplemented, "baseline system has no monitor")
		return
	}
	if err := s.sys.ProvisionKey(req.KeyID, key); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req SubmitRequest
	if !decode(w, r, &req) {
		return
	}
	sealed, err := base64.StdEncoding.DecodeString(req.SealedB64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "sealed_b64: %v", err)
		return
	}
	if req.ID < 0 || req.Priority < -1000 || req.Priority > 1000 {
		writeErr(w, http.StatusBadRequest, "id/priority out of range")
		return
	}
	if req.Arrival > math.MaxInt64 || req.Deadline > math.MaxInt64 {
		writeErr(w, http.StatusBadRequest, "arrival/deadline out of range")
		return
	}
	if req.Deadline > 0 && req.Deadline <= req.Arrival {
		writeErr(w, http.StatusBadRequest, "deadline %d not after arrival %d", req.Deadline, req.Arrival)
		return
	}
	if req.Decode != nil && len(req.Graph) > 0 {
		writeErr(w, http.StatusBadRequest, "decode and graph are mutually exclusive")
		return
	}
	var spec *workload.DecodeSpec
	if req.Decode != nil {
		spec = req.Decode.spec()
	}
	// An inline graph compiles before taking the server lock —
	// compilation is pure, and a hostile graph should burn no time
	// inside the critical section.
	var custom *workload.Workload
	if len(req.Graph) > 0 {
		wl, err := graph.LowerBytes(req.Graph)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		custom = &wl
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		writeBackpressure(w, http.StatusServiceUnavailable, "draining: admission sealed")
		return
	}
	// A registered custom model resolves by name when no inline graph
	// was supplied.
	if custom == nil && spec == nil {
		if m, ok := s.models[req.Model]; ok {
			wl := m.Clone()
			custom = &wl
		}
	}
	id := req.ID
	if id == 0 {
		id = s.nextID
	}
	err = s.sched.Submit(sched.Request{
		ID:       id,
		Tenant:   req.Tenant,
		Model:    req.Model,
		Workload: custom,
		Decode:   spec,
		Secure:   req.Secure,
		Priority: sched.Priority(req.Priority),
		Arrival:  sim.Cycle(req.Arrival),
		Deadline: sim.Cycle(req.Deadline),
		KeyID:    req.KeyID,
		Sealed:   sealed,
	})
	switch {
	case err == nil:
	case errors.Is(err, sched.ErrDuplicateID):
		writeErr(w, http.StatusConflict, "%v", err)
		return
	case errors.Is(err, sched.ErrModelTooLarge):
		writeErr(w, http.StatusRequestEntityTooLarge, "%v", err)
		return
	case errors.Is(err, sched.ErrNoMonitor):
		writeErr(w, http.StatusNotImplemented, "%v", err)
		return
	case errors.Is(err, sched.ErrQueueFull):
		// The tenant's queue bound is hit and the incoming request does
		// not outrank anything queued: shed the newcomer.
		s.shed++
		s.sys.Stats().Inc(sim.CtrServeShed)
		writeBackpressure(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, sched.ErrTenantQuarantined):
		writeBackpressure(w, http.StatusServiceUnavailable, "%v", err)
		return
	default:
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if id >= s.nextID {
		s.nextID = id + 1
	}
	s.pending[id] = true
	writeJSON(w, http.StatusAccepted, map[string]int{"id": id})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sched.Pending() == 0 {
		writeErr(w, http.StatusConflict, "no pending requests")
		return
	}
	rep, err := s.runEpisode()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	out := RunReport{
		Episode:     s.episodes,
		Results:     rep.Results,
		DecisionLog: make([]string, 0, len(rep.Decisions)),
		Makespan:    rep.Makespan,
		FlushCycles: rep.FlushCycles,
		Completed:   rep.Completed,
		Rejected:    rep.Rejected,
		Dropped:     rep.Dropped,
		Aborted:     rep.Aborted,
		Shed:        rep.Shed,
		Retries:     rep.Retries,
		Recovered:   rep.Recovered,
		Preemptions: rep.Preemptions,
		BatchedRuns: rep.BatchedRuns,
		Tokens:      rep.Tokens,
	}
	for _, d := range rep.Decisions {
		out.DecisionLog = append(out.DecisionLog, d.String())
	}
	writeJSON(w, http.StatusOK, out)
}

// ResultReport is the GET /v1/result response body.
type ResultReport struct {
	Result sched.Result `json:"result"`
}

// handleResult maps a terminal (or pending) request outcome to an HTTP
// status. The mapping distinguishes the *retryable* fault-abort class
// (503 + Retry-After: transient, resubmit later) from the isolation
// abort class (410 Gone: do not retry) by the Retryable flag alone —
// both carry the same opaque §IV-B error string, so no cause detail
// crosses the API that the scheduler did not already decide to expose.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	var id int
	if _, err := fmt.Sscanf(r.URL.Query().Get("id"), "%d", &id); err != nil || id <= 0 {
		writeErr(w, http.StatusBadRequest, "id: positive integer required")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.results[id]
	if !ok {
		if s.pending[id] {
			writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "state": "pending"})
			return
		}
		writeErr(w, http.StatusNotFound, "unknown request id %d", id)
		return
	}
	switch {
	case res.Completed:
		writeJSON(w, http.StatusOK, ResultReport{Result: res})
	case res.Shed:
		w.Header().Set("Retry-After", fmt.Sprintf("%d", RetryAfterSeconds))
		writeJSON(w, http.StatusTooManyRequests, ResultReport{Result: res})
	case res.Dropped:
		writeJSON(w, http.StatusGatewayTimeout, ResultReport{Result: res})
	case res.Aborted && res.Retryable:
		w.Header().Set("Retry-After", fmt.Sprintf("%d", RetryAfterSeconds))
		writeJSON(w, http.StatusServiceUnavailable, ResultReport{Result: res})
	case res.Aborted:
		writeJSON(w, http.StatusGone, ResultReport{Result: res})
	default: // rejected at admission
		writeJSON(w, http.StatusBadRequest, ResultReport{Result: res})
	}
}

// handleHealthz is liveness: 200 as long as the process serves HTTP,
// draining included.
// ModelInfo is one entry of the GET /v1/models listing. Digest is the
// hex canonical-workload digest — the same value stamped into a
// compiled program's SourceDigest and bound by attestation quotes, so
// a client can pre-verify which graph a name will run.
type ModelInfo struct {
	Name   string `json:"name"`
	Source string `json:"source"` // "builtin" or "registered"
	Layers int    `json:"layers"`
	GEMMs  int    `json:"gemms"`
	Digest string `json:"digest"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	var out []ModelInfo
	for _, name := range workload.Names() {
		wl, err := workload.Lookup(name)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
		out = append(out, modelInfo(wl, "builtin"))
	}
	s.mu.Lock()
	registered := make([]workload.Workload, 0, len(s.models))
	for _, m := range s.models {
		registered = append(registered, m)
	}
	s.mu.Unlock()
	sort.Slice(registered, func(i, j int) bool { return registered[i].Name < registered[j].Name })
	for _, m := range registered {
		out = append(out, modelInfo(m, "registered"))
	}
	writeJSON(w, http.StatusOK, out)
}

func modelInfo(wl workload.Workload, source string) ModelInfo {
	gemms := 0
	for _, l := range wl.Layers {
		gemms += len(l.GEMMs)
	}
	d := workload.Digest(wl)
	return ModelInfo{
		Name: wl.Name, Source: source,
		Layers: len(wl.Layers), GEMMs: gemms,
		Digest: hex.EncodeToString(d[:]),
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 503 once draining so load balancers stop
// routing new work while in-flight episodes finish.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeBackpressure(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// Drain seals admission: subsequent submits and key provisioning get
// 503 + Retry-After, /readyz flips to 503, and already-submitted work
// remains runnable. Idempotent.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// DrainAndFinish seals admission and runs one final episode if any
// requests are still pending, so SIGTERM shutdown completes in-flight
// work (paying every §IV-B flush on the way) instead of stranding it.
// It returns the final report, or nil if nothing was pending.
func (s *Server) DrainAndFinish() (*sched.Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	if s.sched.Pending() == 0 {
		return nil, nil
	}
	return s.runEpisode()
}

// runEpisode runs the pending requests as one scheduler episode, arms
// the next one, and folds the report into the status tallies, the
// serve.shed counter and the result map. The caller holds s.mu.
func (s *Server) runEpisode() (*sched.Report, error) {
	rep, err := s.sched.Run()
	// The scheduler is consumed either way; arm the next episode.
	if rerr := s.resetScheduler(); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		return nil, err
	}
	s.episodes++
	s.completed += rep.Completed
	s.rejected += rep.Rejected
	s.dropped += rep.Dropped
	s.aborted += rep.Aborted
	s.shed += rep.Shed
	s.recovered += rep.Recovered
	s.sys.Stats().Add(sim.CtrServeShed, int64(rep.Shed))
	for _, res := range rep.Results {
		s.results[res.ID] = res
		delete(s.pending, res.ID)
	}
	s.last = rep
	return rep, nil
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	status := map[string]any{
		"pending":   s.sched.Pending(),
		"episodes":  s.episodes,
		"completed": s.completed,
		"rejected":  s.rejected,
		"dropped":   s.dropped,
		"aborted":   s.aborted,
		"shed":      s.shed,
		"recovered": s.recovered,
		"draining":  s.draining,
		"protected": s.sys.Monitor() != nil,
	}
	if qs := s.breaker.Quarantined(); len(qs) > 0 {
		sort.Strings(qs)
		status["quarantined"] = qs
	}
	if s.last != nil {
		status["last_makespan"] = s.last.Makespan
	}
	writeJSON(w, http.StatusOK, status)
}

// handleMetrics serves the attached observability registry in
// Prometheus text format (404 when observability is off).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.mu.Lock()
	o := s.sys.Observer()
	s.mu.Unlock()
	if o == nil {
		writeErr(w, http.StatusNotFound, "observability not enabled")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = o.Registry().WritePrometheus(w)
}

// Boot builds a protected system with observability on, ready for New
// (the daemon's default; tests boot their own variants).
func Boot() (*snpu.System, error) {
	sys, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		return nil, err
	}
	sys.EnableObservability(obs.Config{})
	return sys, nil
}
