package serve

import (
	"encoding/base64"
	"encoding/json"
	"net/http"
	"testing"

	snpu "repro"
)

// The HTTP layer is part of the deterministic contract: two
// independently booted daemons fed byte-identical request streams must
// return byte-identical /v1/run bodies — results, cycle spans, and the
// rendered decision log included. This is the serving-stack face of the
// differential tests in internal/sched.
func TestServeDifferentialRun(t *testing.T) {
	key := snpu.ChaosKey(11)
	sealed, err := snpu.SealModel(key, []byte("differential model"))
	if err != nil {
		t.Fatal(err)
	}
	keyBody, _ := json.Marshal(KeyRequest{KeyID: "k", KeyB64: base64.StdEncoding.EncodeToString(key)})
	submits := []SubmitRequest{
		{Tenant: "a", Model: "mobilenet", Secure: true, KeyID: "k", Priority: 2,
			SealedB64: base64.StdEncoding.EncodeToString(sealed)},
		{Tenant: "b", Model: "yololite", Arrival: 4000},
		{Tenant: "a", Model: "mobilenet", Secure: true, KeyID: "k", Arrival: 9000,
			SealedB64: base64.StdEncoding.EncodeToString(sealed)},
		{Tenant: "c", Model: "alexnet", Arrival: 12000, Deadline: 90_000_000},
	}

	runOnce := func() string {
		sys, err := snpu.New(snpu.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(sys, Config{Cores: []int{0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		if rec := do(t, h, "POST", "/v1/keys", string(keyBody)); rec.Code != http.StatusNoContent {
			t.Fatalf("keys: %d %s", rec.Code, rec.Body)
		}
		for i, sr := range submits {
			body, _ := json.Marshal(sr)
			if rec := do(t, h, "POST", "/v1/submit", string(body)); rec.Code != http.StatusAccepted {
				t.Fatalf("submit %d: %d %s", i, rec.Code, rec.Body)
			}
		}
		rec := do(t, h, "POST", "/v1/run", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("run: %d %s", rec.Code, rec.Body)
		}
		return rec.Body.String()
	}

	ref := runOnce()
	var rep RunReport
	if err := json.Unmarshal([]byte(ref), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(submits) {
		t.Fatalf("reference run completed %d of %d: %s", rep.Completed, len(submits), ref)
	}
	if got := runOnce(); got != ref {
		t.Fatalf("run bodies diverge across daemons\n--- ref ---\n%s\n--- got ---\n%s", ref, got)
	}
}
