package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

// The decode serving flow: submit a small decode batch, run the
// episode, and read per-request token counts back from /v1/result.
func TestServeDecodeEndToEnd(t *testing.T) {
	_, h := bootServer(t)

	const steps = 3
	decode := fmt.Sprintf(
		`{"tenant":"a","secure":true,"decode":{"hidden":64,"heads":4,"prompt":8,"steps":%d}}`, steps)
	for i := 0; i < 2; i++ {
		rec := do(t, h, "POST", "/v1/submit", decode)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, rec.Code, rec.Body)
		}
	}

	rec := do(t, h, "POST", "/v1/run", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("run: %d %s", rec.Code, rec.Body)
	}
	var rep RunReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2 {
		t.Fatalf("completed = %d: %+v", rep.Completed, rep)
	}
	if want := 2 * (steps + 1); rep.Tokens != want {
		t.Fatalf("episode tokens = %d, want %d", rep.Tokens, want)
	}

	// /v1/result surfaces the streaming token count per request.
	for id := 1; id <= 2; id++ {
		rec := do(t, h, "GET", fmt.Sprintf("/v1/result?id=%d", id), "")
		if rec.Code != http.StatusOK {
			t.Fatalf("result %d: %d %s", id, rec.Code, rec.Body)
		}
		var res ResultReport
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		if res.Result.Tokens != steps+1 {
			t.Fatalf("result %d tokens = %d, want %d", id, res.Result.Tokens, steps+1)
		}
	}
}

// Decode submissions fail closed: non-secure, invalid geometry, and a
// decode+graph combination are all 400s and never reach the scheduler.
func TestServeDecodeRejections(t *testing.T) {
	_, h := bootServer(t)
	cases := []struct {
		name, body string
		want       int
	}{
		{"non-secure",
			`{"tenant":"a","decode":{"hidden":64,"heads":4,"prompt":8,"steps":2}}`,
			http.StatusBadRequest},
		{"zero-steps",
			`{"tenant":"a","secure":true,"decode":{"hidden":64,"heads":4,"prompt":8,"steps":0}}`,
			http.StatusBadRequest},
		{"indivisible-heads",
			`{"tenant":"a","secure":true,"decode":{"hidden":63,"heads":4,"prompt":8,"steps":2}}`,
			http.StatusBadRequest},
		{"decode-and-graph",
			`{"tenant":"a","secure":true,"decode":{"hidden":64,"heads":4,"prompt":8,"steps":2},"graph":{"ir":1}}`,
			http.StatusBadRequest},
		{"unknown-decode-field",
			`{"tenant":"a","secure":true,"decode":{"hidden":64,"heads":4,"prompt":8,"steps":2,"evil":1}}`,
			http.StatusBadRequest},
		{"gemm-cap-wide",
			`{"tenant":"a","secure":true,"decode":{"layers":128,"hidden":65536,"heads":65536,"ffn":1,"prompt":1,"steps":512}}`,
			http.StatusBadRequest},
		{"gemm-cap-narrow",
			`{"tenant":"a","secure":true,"decode":{"layers":128,"hidden":1024,"heads":1024,"ffn":1,"prompt":1,"steps":512}}`,
			http.StatusBadRequest},
	}
	for _, c := range cases {
		if rec := do(t, h, "POST", "/v1/submit", c.body); rec.Code != c.want {
			t.Fatalf("%s: code = %d, want %d (%s)", c.name, rec.Code, c.want, rec.Body)
		}
	}
	// Nothing hostile was admitted: running now is a 409 (empty queue).
	if rec := do(t, h, "POST", "/v1/run", ""); rec.Code != http.StatusConflict {
		t.Fatalf("queue not empty after rejections: %d", rec.Code)
	}
}
