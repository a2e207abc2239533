package snpu

// The decode experiment: autoregressive decode served through the
// multi-tenant scheduler with KV-cache residency and continuous
// batching, swept over the batch width. Each row replays the same
// seeded request trace, so the sweep isolates what batching buys:
// tokens/sec (1 GHz cycle model) rises with MaxBatch while the
// inter-token tail stretches as members interleave. Serving is beyond
// the paper; the sweep exists to exercise §IV-B KV window residency
// under preemption and to pin per-token cycle determinism (the same
// seed yields a byte-identical table at any -j width).

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The sweep's shape: decodeRequests decode requests per batch point
// from decodeTenants tenants on two cores, at MaxBatch 1, 2 and 4.
// Each tenant decodes its own spec, so batches never mix specs.
const (
	decodeRequests = 10
	decodeTenants  = 2
)

var decodeBatches = []int{1, 2, 4}

// decodeSpecFor is the per-tenant decode geometry: small enough that a
// sweep cell stays fast, distinct enough that the same-spec batching
// guard is load-bearing.
func decodeSpecFor(tenant int) workload.DecodeSpec {
	return workload.DecodeSpec{
		Layers: 1,
		Hidden: 64,
		Heads:  4,
		FFN:    128,
		Prompt: 8 + 4*tenant,
		Steps:  3 + tenant,
	}
}

// DecodeBenchRow is one batch-width point.
type DecodeBenchRow struct {
	MaxBatch  int
	Requests  int
	Completed int
	// Tokens is the total autoregressive tokens retired.
	Tokens   int
	Makespan sim.Cycle
	// TokensPerSec is tokens over makespan at the 1 GHz cycle model
	// (one cycle = one nanosecond).
	TokensPerSec float64
	// P50ITL / P99ITL are percentiles of the inter-token latency: the
	// cycle gaps between a request's consecutive token retirements.
	P50ITL, P99ITL sim.Cycle
	// Joins counts mid-run continuous-batching admissions; BatchedRuns
	// counts requests that shared a batch-mate's FnSubmit.
	Joins       int
	BatchedRuns int
	Preemptions int
	FlushCycles sim.Cycle
}

// DecodeBenchResult is the full sweep.
type DecodeBenchResult struct {
	Seed int64
	Rows []DecodeBenchRow
}

// TableString renders the sweep.
func (r *DecodeBenchResult) TableString() string {
	header := []string{"batch", "reqs", "done", "tokens", "makespan-cyc",
		"tok/s@1GHz", "p50-itl-cyc", "p99-itl-cyc", "joins", "batched", "preempts", "flush-cyc"}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.MaxBatch),
			fmt.Sprintf("%d", row.Requests),
			fmt.Sprintf("%d", row.Completed),
			fmt.Sprintf("%d", row.Tokens),
			fmt.Sprintf("%d", row.Makespan),
			fmt.Sprintf("%.0f", row.TokensPerSec),
			fmt.Sprintf("%d", row.P50ITL),
			fmt.Sprintf("%d", row.P99ITL),
			fmt.Sprintf("%d", row.Joins),
			fmt.Sprintf("%d", row.BatchedRuns),
			fmt.Sprintf("%d", row.Preemptions),
			fmt.Sprintf("%d", row.FlushCycles),
		})
	}
	return experiments.Table(header, rows)
}

// DecodeTrace generates the deterministic decode trace shared by every
// batch point: n decode requests round-robined over tenants with
// staggered arrivals (so later requests join running batches), plus
// one higher-priority plain secure request per episode that preempts a
// decode batch mid-stream — proving KV residency costs show up in the
// measured inter-token tail, not in correctness. Exposed so the
// differential tests can replay the exact trace the bench ran.
func DecodeTrace(seed int64, n, tenants int) []sched.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]sched.Request, 0, n+1)
	var at float64
	for i := 1; i <= n; i++ {
		at += rng.ExpFloat64() * 60_000
		tenant := rng.Intn(tenants)
		spec := decodeSpecFor(tenant)
		reqs = append(reqs, sched.Request{
			ID:       i,
			Tenant:   fmt.Sprintf("t%d", tenant),
			Secure:   true,
			Decode:   &spec,
			Arrival:  sim.Cycle(at),
			Priority: sched.Priority(rng.Intn(2)),
		})
	}
	reqs = append(reqs, sched.Request{
		ID: n + 1, Tenant: "t0", Model: "mobilenet", Secure: true, Priority: 6,
		KeyID:   "t0-key",
		Arrival: sim.Cycle(at / 2),
	})
	return reqs
}

// DecodeBench runs the batch-width sweep; small selects the CI smoke
// shape (6 requests, batch widths 1 and 2). Each point replays the
// seeded trace through one scheduler episode on a pooled protected SoC
// and summarizes per-token timing.
func DecodeBench(seed int64, small bool) (*DecodeBenchResult, error) {
	requests, batches := decodeRequests, decodeBatches
	if small {
		requests, batches = 6, []int{1, 2}
	}
	rows, err := experiments.MapIndexed(len(batches), func(i int) (DecodeBenchRow, error) {
		row, err := decodeBatchPoint(seed, batches[i], requests)
		if err != nil {
			return DecodeBenchRow{}, fmt.Errorf("decode batch %d: %w", batches[i], err)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &DecodeBenchResult{Seed: seed, Rows: rows}, nil
}

func decodeBatchPoint(seed int64, batch, requests int) (DecodeBenchRow, error) {
	rep, _, err := runEpisode(seed, decodeTenants, nil, sched.Config{Cores: []int{0, 1}, MaxBatch: batch},
		DecodeTrace(seed, requests, decodeTenants),
		func(string) []byte { return []byte("decode preemptor model") })
	if err != nil {
		return DecodeBenchRow{}, err
	}
	return summarizeDecode(batch, rep), nil
}

func summarizeDecode(batch int, rep *sched.Report) DecodeBenchRow {
	row := DecodeBenchRow{
		MaxBatch:    batch,
		Requests:    len(rep.Results),
		Completed:   rep.Completed,
		Tokens:      rep.Tokens,
		Makespan:    rep.Makespan,
		BatchedRuns: rep.BatchedRuns,
		Preemptions: rep.Preemptions,
		FlushCycles: rep.FlushCycles,
	}
	for _, d := range rep.Decisions {
		if d.Event == "join" {
			row.Joins++
		}
	}
	if row.Makespan > 0 {
		// 1 GHz cycle model: one cycle is one nanosecond.
		row.TokensPerSec = float64(row.Tokens) * 1e9 / float64(row.Makespan)
	}
	row.P50ITL, row.P99ITL = interTokenPercentiles(rep.TokenTimes)
	return row
}

// interTokenPercentiles pools every request's consecutive token-retire
// gaps and returns the p50/p99 of the pooled distribution. Request IDs
// are walked in sorted order so the pooling is deterministic.
func interTokenPercentiles(tokenTimes map[int][]sim.Cycle) (p50, p99 sim.Cycle) {
	ids := make([]int, 0, len(tokenTimes))
	for id := range tokenTimes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var gaps []sim.Cycle
	for _, id := range ids {
		times := tokenTimes[id]
		for i := 1; i < len(times); i++ {
			gaps = append(gaps, times[i]-times[i-1])
		}
	}
	return percentiles(gaps)
}
