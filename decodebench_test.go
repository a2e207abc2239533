package snpu

import (
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// TestDecodeBenchDeterministicAndBatched pins the decode sweep's two
// contracts at once: the same seed renders a byte-identical table on
// fresh boots and on pooled (recycled) Systems, and widening MaxBatch
// actually engages continuous batching — joins appear and the
// preemption-induced inter-token tail collapses.
func TestDecodeBenchDeterministicAndBatched(t *testing.T) {
	experiments.SetPooling(false)
	res, err := DecodeBench(1, false)
	if err != nil {
		t.Fatal(err)
	}
	fresh := res.TableString()

	experiments.SetPooling(true)
	defer experiments.SetPooling(true)
	res2, err := DecodeBench(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if pooled := res2.TableString(); pooled != fresh {
		t.Fatalf("decode sweep differs between fresh and pooled Systems:\n--- fresh ---\n%s--- pooled ---\n%s", fresh, pooled)
	}

	if len(res.Rows) != 3 {
		t.Fatalf("default sweep has %d rows, want 3", len(res.Rows))
	}
	solo, wide := res.Rows[0], res.Rows[len(res.Rows)-1]
	if solo.MaxBatch != 1 || wide.MaxBatch != 4 {
		t.Fatalf("unexpected batch points: %d..%d", solo.MaxBatch, wide.MaxBatch)
	}
	// Every point decodes the full trace to completion.
	for _, row := range res.Rows {
		if row.Report.Completed != row.Requests() {
			t.Fatalf("batch %d: %d/%d completed", row.MaxBatch, row.Report.Completed, row.Requests())
		}
		if row.Report.Tokens != solo.Report.Tokens {
			t.Fatalf("batch %d retired %d tokens, batch 1 retired %d — token count must not depend on batching",
				row.MaxBatch, row.Report.Tokens, solo.Report.Tokens)
		}
		if _, p99 := row.InterToken(); row.TokensPerSec() <= 0 || p99 <= 0 {
			t.Fatalf("batch %d: degenerate metrics: %.0f tok/s, p99 inter-token %d", row.MaxBatch, row.TokensPerSec(), p99)
		}
	}
	if solo.Joins() != 0 {
		t.Fatalf("batch 1 recorded %d joins; continuous batching must be off at width 1", solo.Joins())
	}
	if wide.Joins() == 0 || wide.Report.BatchedRuns == 0 {
		t.Fatalf("batch 4 never batched: %d joins, %d batched runs", wide.Joins(), wide.Report.BatchedRuns)
	}
	// The solo sweep's tail contains a full preemption (the plain secure
	// request runs in the middle of a token stream); batching absorbs it.
	_, soloP99 := solo.InterToken()
	if _, wideP99 := wide.InterToken(); wideP99 >= soloP99 {
		t.Fatalf("batching did not cut the inter-token tail: batch1 p99=%d, batch4 p99=%d",
			soloP99, wideP99)
	}
}

func TestInterTokenPercentiles(t *testing.T) {
	if p50, p99 := interTokenPercentiles(nil); p50 != 0 || p99 != 0 {
		t.Fatalf("empty input: %d/%d", p50, p99)
	}
	// One request with uniform 10-cycle gaps, one with a single huge gap:
	// the pooled p99 must surface the outlier, the p50 the common case.
	times := map[int][]sim.Cycle{
		1: {100, 110, 120, 130, 140, 150, 160, 170, 180, 190},
		2: {200, 1_000_200},
	}
	p50, p99 := interTokenPercentiles(times)
	if p50 != 10 {
		t.Fatalf("p50 = %d, want 10", p50)
	}
	if p99 != 1_000_000 {
		t.Fatalf("p99 = %d, want the outlier gap 1000000", p99)
	}
	// A single-token request contributes no gaps.
	if p50, p99 := interTokenPercentiles(map[int][]sim.Cycle{1: {42}}); p50 != 0 || p99 != 0 {
		t.Fatalf("single token produced gaps: %d/%d", p50, p99)
	}
}

// TestDecodeTraceShape pins the generator: decode requests round-robin
// the tenants with per-tenant specs, and the trailing plain request is
// the designated preemptor.
func TestDecodeTraceShape(t *testing.T) {
	trace := DecodeTrace(1, 10, 2)
	if len(trace) != 11 {
		t.Fatalf("trace has %d requests, want 11", len(trace))
	}
	for _, r := range trace[:10] {
		if r.Decode == nil || !r.Secure {
			t.Fatalf("req %d is not a secure decode request: %+v", r.ID, r)
		}
		want := decodeSpecFor(int(r.Tenant[1] - '0'))
		if *r.Decode != want {
			t.Fatalf("req %d (tenant %s) spec %+v does not match tenant spec %+v", r.ID, r.Tenant, *r.Decode, want)
		}
	}
	last := trace[10]
	if last.Decode != nil || last.Model != "mobilenet" || last.Priority <= 0 {
		t.Fatalf("trailing request is not the plain preemptor: %+v", last)
	}
	// Determinism of the generator itself.
	again := DecodeTrace(1, 10, 2)
	if !reflect.DeepEqual(trace, again) {
		t.Fatal("trace not deterministic across calls")
	}
}
