package serve

// Resilience surface tests: deadline validation at decode time, the
// 429/503 + Retry-After backpressure mappings, the /v1/result status
// mapping (including the retryable-vs-isolation abort distinction by
// status class only, never error string), health endpoints, and the
// graceful drain path.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	snpu "repro"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
)

func bootResilient(t *testing.T, cfg Config) (*snpu.System, *Server) {
	t.Helper()
	sys, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableObservability(obs.Config{})
	srv, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, srv
}

// submitJSON posts a submit body and returns the recorder.
func submitBody(t *testing.T, h http.Handler, sr SubmitRequest) *bytes.Buffer {
	t.Helper()
	b, err := json.Marshal(sr)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewBuffer(b)
}

// provisionAndSeal provisions a fresh tenant key and returns the
// sealed blob, base64-encoded for the submit body.
func provisionAndSeal(t *testing.T, sys *snpu.System, keyID string) string {
	t.Helper()
	key := bytes.Repeat([]byte{9}, snpu.SealKeySize)
	if err := sys.ProvisionKey(keyID, key); err != nil {
		t.Fatal(err)
	}
	sealed, err := snpu.SealModel(key, []byte("resilience serve model"))
	if err != nil {
		t.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(sealed)
}

// A deadline at or before the arrival cycle can never be met; the API
// rejects it at decode time with 400 before it reaches the scheduler.
func TestServeRejectsDeadlineBeforeArrival(t *testing.T) {
	_, srv := bootResilient(t, Config{Cores: []int{0}})
	h := srv.Handler()
	cases := []struct {
		name, body string
		want       int
	}{
		{"deadline-equals-arrival", `{"tenant":"a","model":"resnet","arrival":500,"deadline":500}`, http.StatusBadRequest},
		{"deadline-before-arrival", `{"tenant":"a","model":"resnet","arrival":500,"deadline":100}`, http.StatusBadRequest},
		{"zero-arrival-zero-deadline", `{"tenant":"a","model":"resnet"}`, http.StatusAccepted},
		{"valid-deadline", `{"tenant":"a","model":"mobilenet","arrival":100,"deadline":100000000}`, http.StatusAccepted},
	}
	for _, c := range cases {
		if rec := do(t, h, "POST", "/v1/submit", c.body); rec.Code != c.want {
			t.Fatalf("%s: code = %d, want %d (%s)", c.name, rec.Code, c.want, rec.Body)
		}
	}
}

// When a tenant's queue bound is hit and the newcomer does not outrank
// anything queued, the submit is refused with 429 + Retry-After. A
// strictly higher-priority newcomer instead sheds the least urgent
// queued request, which /v1/result later reports as 429.
func TestServeQueueBoundBackpressure(t *testing.T) {
	_, srv := bootResilient(t, Config{Cores: []int{0, 1}, MaxQueuePerTenant: 2})
	h := srv.Handler()

	for i := 1; i <= 2; i++ {
		body := fmt.Sprintf(`{"id":%d,"tenant":"a","model":"mobilenet"}`, i)
		if rec := do(t, h, "POST", "/v1/submit", body); rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	// Equal priority: the newcomer is the one shed — 429 with pacing.
	rec := do(t, h, "POST", "/v1/submit", `{"id":3,"tenant":"a","model":"mobilenet"}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("equal-prio overflow: %d %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Other tenants are unaffected by a's bound.
	if rec := do(t, h, "POST", "/v1/submit", `{"id":4,"tenant":"b","model":"mobilenet"}`); rec.Code != http.StatusAccepted {
		t.Fatalf("tenant b: %d %s", rec.Code, rec.Body)
	}
	// A higher-priority newcomer is admitted by shedding request 2
	// (same priority as 1 but later ID under the urgency order).
	rec = do(t, h, "POST", "/v1/submit", `{"id":5,"tenant":"a","model":"mobilenet","priority":10}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("high-prio overflow: %d %s", rec.Code, rec.Body)
	}

	if rec := do(t, h, "POST", "/v1/run", ""); rec.Code != http.StatusOK {
		t.Fatalf("run: %d %s", rec.Code, rec.Body)
	}
	// The shed victim maps to 429 + Retry-After at /v1/result.
	rec = do(t, h, "GET", "/v1/result?id=2", "")
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("shed result: %d %s", rec.Code, rec.Body)
	}
	var rr ResultReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil || !rr.Result.Shed {
		t.Fatalf("shed result body: %+v (%v)", rr, err)
	}
	// Survivors completed.
	for _, id := range []int{1, 4, 5} {
		if rec := do(t, h, "GET", fmt.Sprintf("/v1/result?id=%d", id), ""); rec.Code != http.StatusOK {
			t.Fatalf("result %d: %d %s", id, rec.Code, rec.Body)
		}
	}
	// The status surface tallies both the shed result and the refused
	// submit.
	if rec := do(t, h, "GET", "/v1/status", ""); !strings.Contains(rec.Body.String(), `"shed":2`) {
		t.Fatalf("status shed tally: %s", rec.Body)
	}
}

// A fault-aborted secure task without restart budget is Retryable: the
// result maps to 503 + Retry-After, and its error string is exactly
// the opaque abort message — byte-identical to what an isolation abort
// reports, so the status class is the only signal of the abort's kind.
func TestServeRetryableAbortMapsTo503(t *testing.T) {
	sys, srv := bootResilient(t, Config{Cores: []int{0}})
	h := srv.Handler()
	// Wedge core 0 on every dispatch attempt.
	events := make([]fault.Event, 0, 64)
	for i := 1; i <= 64; i++ {
		events = append(events, fault.Event{At: sim.Cycle(i) * 50_000, Kind: fault.CoreHang, Sel: 0})
	}
	sys.InstallFaultPlan(fault.Plan{Events: events})

	sealed := provisionAndSeal(t, sys, "ka")
	body := fmt.Sprintf(`{"id":1,"tenant":"a","model":"mobilenet","secure":true,"key_id":"ka","sealed_b64":"%s"}`, sealed)
	if rec := do(t, h, "POST", "/v1/submit", body); rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	if rec := do(t, h, "POST", "/v1/run", ""); rec.Code != http.StatusOK {
		t.Fatalf("run: %d %s", rec.Code, rec.Body)
	}
	rec := do(t, h, "GET", "/v1/result?id=1", "")
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("retryable abort: %d %s", rec.Code, rec.Body)
	}
	var rr ResultReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Result.Aborted || !rr.Result.Retryable {
		t.Fatalf("result flags: %+v", rr.Result)
	}
	if rr.Result.Err != sched.ErrTaskAborted.Error() {
		t.Fatalf("abort error leaked detail: %q", rr.Result.Err)
	}
	for _, leak := range []string{"hang", "fault", "core"} {
		if strings.Contains(strings.ToLower(rr.Result.Err), leak) {
			t.Fatalf("abort error mentions %q: %q", leak, rr.Result.Err)
		}
	}
}

// /v1/result covers the non-terminal and unknown cases too: accepted
// but not yet run is 202, never-seen is 404, garbage id is 400.
func TestServeResultPendingAndUnknown(t *testing.T) {
	_, srv := bootResilient(t, Config{Cores: []int{0}})
	h := srv.Handler()
	if rec := do(t, h, "POST", "/v1/submit", `{"id":7,"tenant":"a","model":"resnet"}`); rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	if rec := do(t, h, "GET", "/v1/result?id=7", ""); rec.Code != http.StatusAccepted {
		t.Fatalf("pending: %d %s", rec.Code, rec.Body)
	}
	if rec := do(t, h, "GET", "/v1/result?id=99", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown: %d %s", rec.Code, rec.Body)
	}
	if rec := do(t, h, "GET", "/v1/result?id=zip", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage id: %d %s", rec.Code, rec.Body)
	}
	if rec := do(t, h, "GET", "/v1/result", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing id: %d %s", rec.Code, rec.Body)
	}
	if rec := do(t, h, "POST", "/v1/result?id=7", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("post result: %d", rec.Code)
	}
}

// A request that misses its finish deadline mid-run maps to 504, and
// the miss pays the mandatory flush (visible in the run report).
func TestServeDeadlineMissMapsTo504(t *testing.T) {
	_, srv := bootResilient(t, Config{Cores: []int{0}})
	h := srv.Handler()
	// The mobilenet deadline is feasible in isolation but expires while
	// the request waits behind the long resnet run on the only core
	// (dispatch order follows request ID at equal priority).
	if rec := do(t, h, "POST", "/v1/submit", `{"id":1,"tenant":"b","model":"resnet"}`); rec.Code != http.StatusAccepted {
		t.Fatalf("submit resnet: %d %s", rec.Code, rec.Body)
	}
	body := `{"id":2,"tenant":"a","model":"mobilenet","deadline":10000000}`
	if rec := do(t, h, "POST", "/v1/submit", body); rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	rec := do(t, h, "POST", "/v1/run", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("run: %d %s", rec.Code, rec.Body)
	}
	var rep RunReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Dropped != 1 || rep.Completed != 1 {
		t.Fatalf("report: %+v", rep)
	}
	if rec := do(t, h, "GET", "/v1/result?id=2", ""); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("dropped result: %d %s", rec.Code, rec.Body)
	}
}

// Repeated aborts trip the per-tenant breaker: the tenant's next
// submission is refused 503 + Retry-After while other tenants proceed,
// and /v1/status names the quarantined tenant.
func TestServeBreakerQuarantine(t *testing.T) {
	sys, srv := bootResilient(t, Config{Cores: []int{0}, BreakerThreshold: 2, BreakerCooldown: 1})
	h := srv.Handler()
	events := make([]fault.Event, 0, 256)
	for i := 1; i <= 256; i++ {
		events = append(events, fault.Event{At: sim.Cycle(i) * 50_000, Kind: fault.CoreHang, Sel: 0})
	}
	sys.InstallFaultPlan(fault.Plan{Events: events})

	sealed := provisionAndSeal(t, sys, "ka")
	for i := 1; i <= 2; i++ {
		body := fmt.Sprintf(`{"id":%d,"tenant":"a","model":"mobilenet","secure":true,"key_id":"ka","sealed_b64":"%s"}`, i, sealed)
		if rec := do(t, h, "POST", "/v1/submit", body); rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	if rec := do(t, h, "POST", "/v1/run", ""); rec.Code != http.StatusOK {
		t.Fatalf("run: %d %s", rec.Code, rec.Body)
	}

	rec := do(t, h, "POST", "/v1/submit", `{"id":3,"tenant":"a","model":"mobilenet"}`)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("quarantined submit: %d %s", rec.Code, rec.Body)
	}
	if rec := do(t, h, "POST", "/v1/submit", `{"id":4,"tenant":"b","model":"mobilenet"}`); rec.Code != http.StatusAccepted {
		t.Fatalf("tenant b during quarantine: %d %s", rec.Code, rec.Body)
	}
	if rec := do(t, h, "GET", "/v1/status", ""); !strings.Contains(rec.Body.String(), `"quarantined":["a"]`) {
		t.Fatalf("status quarantine: %s", rec.Body)
	}
}

// Liveness stays green across a drain; readiness flips to 503, new
// submits and key provisioning are refused with Retry-After, and
// DrainAndFinish completes in-flight work so nothing is stranded.
func TestServeHealthAndGracefulDrain(t *testing.T) {
	sys, srv := bootResilient(t, Config{Cores: []int{0, 1}})
	h := srv.Handler()

	if rec := do(t, h, "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	if rec := do(t, h, "GET", "/readyz", ""); rec.Code != http.StatusOK {
		t.Fatalf("readyz: %d", rec.Code)
	}

	if rec := do(t, h, "POST", "/v1/submit", `{"id":1,"tenant":"a","model":"mobilenet"}`); rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}

	srv.Drain()
	if rec := do(t, h, "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz while draining: %d", rec.Code)
	}
	rec := do(t, h, "GET", "/readyz", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d", rec.Code)
	}
	rec = do(t, h, "POST", "/v1/submit", `{"id":2,"tenant":"a","model":"mobilenet"}`)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("submit while draining: %d %s", rec.Code, rec.Body)
	}
	key := bytes.Repeat([]byte{3}, snpu.SealKeySize)
	keyBody, _ := json.Marshal(KeyRequest{KeyID: "late", KeyB64: base64.StdEncoding.EncodeToString(key)})
	if rec := do(t, h, "POST", "/v1/keys", string(keyBody)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("keys while draining: %d %s", rec.Code, rec.Body)
	}

	rep, err := srv.DrainAndFinish()
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Completed != 1 {
		t.Fatalf("final episode: %+v", rep)
	}
	if rec := do(t, h, "GET", "/v1/result?id=1", ""); rec.Code != http.StatusOK {
		t.Fatalf("drained result: %d %s", rec.Code, rec.Body)
	}
	// Idempotent with nothing left pending.
	if rep, err := srv.DrainAndFinish(); err != nil || rep != nil {
		t.Fatalf("second drain: %+v %v", rep, err)
	}
	_ = sys
}

// A drain episode that sheds a queued victim counts it on /metrics as
// a /v1/run episode does, so after a graceful shutdown the serve.shed
// counter and the /v1/status shed tally agree.
func TestServeQueueBoundDrainShedMetric(t *testing.T) {
	_, srv := bootResilient(t, Config{Cores: []int{0}, MaxQueuePerTenant: 2})
	h := srv.Handler()
	for _, body := range []string{
		`{"id":1,"tenant":"a","model":"mobilenet"}`,
		`{"id":2,"tenant":"a","model":"mobilenet"}`,
		// Outranks the full queue: admitted by shedding request 2.
		`{"id":3,"tenant":"a","model":"mobilenet","priority":10}`,
	} {
		if rec := do(t, h, "POST", "/v1/submit", body); rec.Code != http.StatusAccepted {
			t.Fatalf("submit %s: %d %s", body, rec.Code, rec.Body)
		}
	}
	rep, err := srv.DrainAndFinish()
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Shed != 1 {
		t.Fatalf("drain episode: %+v", rep)
	}
	if rec := do(t, h, "GET", "/v1/status", ""); !strings.Contains(rec.Body.String(), `"shed":1`) {
		t.Fatalf("status shed tally: %s", rec.Body)
	}
	if rec := do(t, h, "GET", "/metrics", ""); !strings.Contains(rec.Body.String(), "\nserve_shed 1\n") {
		t.Fatal("/metrics serve_shed disagrees with the status shed tally of 1 after a drain")
	}
}
