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

var decodeCols = []experiments.Column[Episode]{
	experiments.Col("batch", "%d", func(e Episode) any { return e.MaxBatch }),
	colRequests, colDone,
	experiments.Col("tokens", "%d", func(e Episode) any { return e.Report.Tokens }),
	experiments.Col("makespan-cyc", "%d", func(e Episode) any { return e.Report.Makespan }),
	experiments.Col("tok/s@1GHz", "%.0f", func(e Episode) any { return e.TokensPerSec() }),
	experiments.Col("p50-itl-cyc", "%d", func(e Episode) any { p50, _ := e.InterToken(); return p50 }),
	experiments.Col("p99-itl-cyc", "%d", func(e Episode) any { _, p99 := e.InterToken(); return p99 }),
	experiments.Col("joins", "%d", func(e Episode) any { return e.Joins() }),
	colBatched, colPreempts, colFlush,
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
// seeded trace through one scheduler episode on a pooled protected SoC.
func DecodeBench(seed int64, small bool) (*experiments.Result[Episode], error) {
	requests, batches := decodeRequests, decodeBatches
	if small {
		requests, batches = 6, []int{1, 2}
	}
	rows, err := experiments.MapIndexed(len(batches), func(i int) (Episode, error) {
		ep, err := runEpisode(seed, decodeTenants, nil, sched.Config{Cores: []int{0, 1}, MaxBatch: batches[i]},
			DecodeTrace(seed, requests, decodeTenants),
			func(string) []byte { return []byte("decode preemptor model") })
		if err != nil {
			return Episode{}, fmt.Errorf("decode batch %d: %w", batches[i], err)
		}
		ep.MaxBatch = batches[i]
		return ep, nil
	})
	if err != nil {
		return nil, err
	}
	return &experiments.Result[Episode]{Rows: rows, Cols: decodeCols}, nil
}
