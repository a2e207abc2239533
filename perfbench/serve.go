package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	snpu "repro"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/serve"
)

// serveDocs are the inline graph-IR documents episodes submit, read
// from the repository root the benchmark runs in.
var serveDocs = []string{
	"examples/graphs/tinycnn.json",
	"internal/graph/testdata/yololite.json",
	"internal/graph/testdata/mobilenet.json",
}

const (
	// Episode shape: serveRequests requests from snpu.ServeTrace at
	// serveLoadPerM per million cycles over serveTenants tenants, the
	// decodeRequests decode sessions (plus one secure preemptor) of
	// snpu.DecodeTrace over two tenants, and one inline graph. No tenant
	// can exceed 4+3+1 = 8 requests, the daemon's default queue bound.
	serveRequests  = 4
	serveLoadPerM  = 0.2
	serveTenants   = 3
	decodeRequests = 2
	decodeTenants  = 2
	// servePrefix is how many episodes the simulated metrics cover.
	servePrefix = 200
)

// serveSubmit is one request of an episode.
type serveSubmit struct {
	req serve.SubmitRequest
	// steps is a decode request's step count: it must complete with
	// steps+1 tokens.
	steps int
	graph bool
}

// serveEpisode builds episode i of a seed: the repo's own serve and
// decode traces plus one inline graph document, drawn by a seeded RNG.
// Secure requests name their tenant's key; sealed blobs are attached at
// submit time.
func serveEpisode(seed int64, i int, docs [][]byte) []serveSubmit {
	es := seed*1_000_003 + int64(i)
	var out []serveSubmit
	for _, r := range snpu.ServeTrace(es, serveLoadPerM, serveRequests, serveTenants) {
		out = append(out, serveSubmit{req: submitBody(r)})
	}
	for _, r := range snpu.DecodeTrace(es, decodeRequests, decodeTenants) {
		s := serveSubmit{req: submitBody(r)}
		if r.Decode != nil {
			d := r.Decode
			s.req.Decode = &serve.DecodeParams{Layers: d.Layers, Hidden: d.Hidden, Heads: d.Heads, FFN: d.FFN, Prompt: d.Prompt, Steps: d.Steps}
			s.steps = d.Steps
		}
		out = append(out, s)
	}
	rng := rand.New(rand.NewSource(es))
	tenant := rng.Intn(serveTenants)
	g := serve.SubmitRequest{
		Tenant:   fmt.Sprintf("t%d", tenant),
		Graph:    docs[rng.Intn(len(docs))],
		Secure:   rng.Intn(2) == 0,
		Priority: rng.Intn(3),
		Arrival:  uint64(rng.Int63n(int64(serveRequests * 1e6 / serveLoadPerM))),
	}
	if g.Secure {
		g.KeyID = fmt.Sprintf("t%d-key", tenant)
	}
	return append(out, serveSubmit{req: g, graph: true})
}

func submitBody(r sched.Request) serve.SubmitRequest {
	return serve.SubmitRequest{
		Tenant: r.Tenant, Model: r.Model, Secure: r.Secure, Priority: int(r.Priority),
		Arrival: uint64(r.Arrival), Deadline: uint64(r.Deadline), KeyID: r.KeyID,
	}
}

// serveLoad is the snpu-serve daemon at its default flags driven
// through Server.Handler() in process: one operation is an episode of
// submits, one POST /v1/run and a GET /v1/result per id.
type serveLoad struct {
	seed   int64
	sys    *snpu.System
	h      http.Handler
	docs   [][]byte
	sealed map[string]string // keyID/model → base64 sealed blob
	keys   map[string][]byte
}

func newServeLoad(seed int64) *serveLoad { return &serveLoad{seed: seed} }

func (s *serveLoad) prefix() int       { return servePrefix }
func (s *serveLoad) roundEnd(int) bool { return true }

// setup boots the daemon as snpu-serve does by default (protected,
// observability on, all cores, restarts 3, tenant queue 8, breaker
// 3/2), provisions each tenant's key over /v1/keys, reads the graph
// documents and runs one warm episode holding every request shape.
func (s *serveLoad) setup() error {
	sys, err := serve.Boot()
	if err != nil {
		return err
	}
	srv, err := serve.New(sys, serve.Config{MaxRestarts: 3, MaxQueuePerTenant: 8, BreakerThreshold: 3, BreakerCooldown: 2})
	if err != nil {
		return err
	}
	s.sys, s.h = sys, srv.Handler()
	s.docs = nil
	for _, p := range serveDocs {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		s.docs = append(s.docs, data)
	}
	s.keys, s.sealed = map[string][]byte{}, map[string]string{}
	rng := rand.New(rand.NewSource(s.seed))
	for t := 0; t < serveTenants; t++ {
		keyID := fmt.Sprintf("t%d-key", t)
		key := make([]byte, snpu.SealKeySize)
		rng.Read(key)
		s.keys[keyID] = key
		code, body := call(s.h, http.MethodPost, "/v1/keys", mustJSON(serve.KeyRequest{KeyID: keyID, KeyB64: base64.StdEncoding.EncodeToString(key)}))
		if code != http.StatusNoContent {
			return fmt.Errorf("provisioning %s: %d %s", keyID, code, body)
		}
	}
	// The warm pass: an episode from a seed stream the measured ones
	// never use, then every graph document secure and non-secure.
	var docs []serveSubmit
	for _, d := range s.docs {
		docs = append(docs,
			serveSubmit{req: serve.SubmitRequest{Tenant: "t2", Graph: d}, graph: true},
			serveSubmit{req: serve.SubmitRequest{Tenant: "t2", Graph: d, Secure: true, KeyID: "t2-key"}, graph: true})
	}
	for _, warm := range [][]serveSubmit{serveEpisode(-s.seed-1, 0, s.docs), docs} {
		out, err := s.episode(warm, nil)
		if err != nil {
			return err
		}
		if len(out.violations) > 0 {
			return fmt.Errorf("warm episode: %s", strings.Join(out.violations, "; "))
		}
	}
	return nil
}

// sealedFor returns the base64 sealed blob for a secure request, one
// per (key, model) so batch-mates share it.
func (s *serveLoad) sealedFor(keyID, model string) (string, error) {
	k := keyID + "/" + model
	if b, ok := s.sealed[k]; ok {
		return b, nil
	}
	blob, err := snpu.SealModel(s.keys[keyID], bytes.Repeat([]byte(k), securePayload/len(k)))
	if err != nil {
		return "", err
	}
	s.sealed[k] = base64.StdEncoding.EncodeToString(blob)
	return s.sealed[k], nil
}

func (s *serveLoad) do(i int, tr *tracer) (outcome, error) {
	sp := tr.start("serve.episode")
	defer tr.stop(sp)
	return s.episode(serveEpisode(s.seed, i, s.docs), tr)
}

// episode submits every request, runs the episode and fetches each
// result, checking the daemon's answers.
func (s *serveLoad) episode(subs []serveSubmit, tr *tracer) (outcome, error) {
	bodies := make([][]byte, len(subs))
	for k := range subs {
		r := &subs[k].req
		if r.Secure && r.KeyID != "" {
			label := r.Model
			if subs[k].graph {
				label = "graph"
			}
			blob, err := s.sealedFor(r.KeyID, label)
			if err != nil {
				return outcome{}, err
			}
			r.SealedB64 = blob
		}
		bodies[k] = mustJSON(*r)
	}
	out := outcome{traffic: map[string]int{}, layer: map[string]float64{}}
	fail := func(format string, args ...any) {
		out.violations = append(out.violations, fmt.Sprintf(format, args...))
	}

	start := time.Now()
	ids := make([]int, len(subs))
	for k, sub := range subs {
		if sub.graph {
			traceGraph(sub.req.Graph, tr)
		}
		sp := tr.start("serve.submit")
		code, body := call(s.h, http.MethodPost, "/v1/submit", bodies[k])
		tr.stop(sp)
		var acc struct{ ID int }
		if code != http.StatusAccepted || json.Unmarshal(body, &acc) != nil || acc.ID == 0 {
			fail("submit %d: %d %s", k, code, bytes.TrimSpace(body))
			continue
		}
		ids[k] = acc.ID
	}
	sp := tr.start("serve.run")
	code, body := call(s.h, http.MethodPost, "/v1/run", nil)
	tr.stop(sp)
	out.latency = time.Since(start)
	var rep serve.RunReport
	if code != http.StatusOK || json.Unmarshal(body, &rep) != nil {
		fail("run: %d %s", code, bytes.TrimSpace(body))
		return out, nil
	}
	out.output = body
	byID := map[int]sched.Result{}
	for _, r := range rep.Results {
		byID[r.ID] = r
	}
	for k, id := range ids {
		if id == 0 {
			continue
		}
		res, ok := byID[id]
		if !ok {
			fail("request %d missing from the run report", id)
			continue
		}
		sp := tr.start("serve.result")
		code, body := call(s.h, http.MethodGet, fmt.Sprintf("/v1/result?id=%d", id), nil)
		tr.stop(sp)
		if want := resultStatus(res); code != want {
			fail("result %d: status %d, want %d for its outcome (%s)", id, code, want, bytes.TrimSpace(body))
		}
		if steps := subs[k].steps; steps > 0 && res.Completed && res.Tokens != steps+1 {
			fail("decode request %d completed with %d tokens, want %d", id, res.Tokens, steps+1)
		}
		account(&out, subs[k], res)
	}
	out.simTime = float64(rep.Makespan)
	out.simUnits = rep.Completed
	out.units = rep.Completed
	out.layer["sched.decisions"] = float64(len(rep.DecisionLog))
	out.layer["sched.preemptions"] = float64(rep.Preemptions)
	out.layer["sched.retries"] = float64(rep.Retries)
	out.layer["sched.tokens"] = float64(rep.Tokens)
	out.layer["sched.flush_mcyc"] = float64(rep.FlushCycles) / 1e6
	for _, line := range rep.DecisionLog {
		if f := strings.Fields(line); len(f) > 2 && f[2] == "kv_alloc" {
			out.layer["sched.kv_allocs"]++
		}
	}
	return out, nil
}

// account adds one result to the traffic shares and simulated samples.
func account(out *outcome, sub serveSubmit, res sched.Result) {
	out.requests++
	out.layer["sched.requests"]++
	props := []string{"non-secure"}
	if sub.req.Secure {
		props[0] = "secure"
	}
	if sub.graph {
		props = append(props, "inline-graph")
	}
	if sub.steps > 0 {
		props = append(props, "decode")
	}
	if res.Batched {
		props = append(props, "batched")
		out.layer["sched.batched"]++
	}
	switch {
	case res.Completed:
		props = append(props, "completed")
		out.simLatency = append(out.simLatency, float64(res.Latency()))
		out.queueWait = append(out.queueWait, float64(res.Start-res.Arrival))
	case res.Dropped:
		props = append(props, "dropped")
	case res.Rejected:
		props = append(props, "rejected")
	default:
		props = append(props, "other-terminal")
	}
	for _, p := range props {
		out.traffic[p]++
	}
}

// traceGraph times the graph layer on an inline document (traced phase
// only; the daemon parses it again inside serve.submit).
func traceGraph(doc []byte, tr *tracer) {
	if tr == nil {
		return
	}
	sp := tr.start("graph.parse")
	m, err := graph.Parse(doc)
	tr.stop(sp)
	if err != nil {
		return
	}
	sp = tr.start("graph.validate")
	err = m.Validate()
	tr.stop(sp)
	if err != nil {
		return
	}
	sp = tr.start("graph.lower")
	_, _ = graph.Lower(m) // a failure shows up as the daemon's 400
	tr.stop(sp)
}

// resultStatus is the /v1/result status the daemon's contract gives a
// terminal result.
func resultStatus(r sched.Result) int {
	switch {
	case r.Completed:
		return http.StatusOK
	case r.Shed:
		return http.StatusTooManyRequests
	case r.Dropped:
		return http.StatusGatewayTimeout
	case r.Aborted && r.Retryable:
		return http.StatusServiceUnavailable
	case r.Aborted:
		return http.StatusGone
	default:
		return http.StatusBadRequest
	}
}

func (s *serveLoad) counters() map[string]float64 {
	// The observer registry snpu-serve enables sums the system's
	// sim.Stats with the components' own instruments.
	snap := s.sys.Observer().Registry().Snapshot()
	return withCompileCache(layerCounters(func(k string) int64 { return snap[k] }))
}

// call serves one request through the handler, without sockets.
func call(h http.Handler, method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs are marshalled
	}
	return b
}
