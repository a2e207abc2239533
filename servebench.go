package snpu

// The serve experiment: a seeded open-loop load generator driving the
// multi-tenant scheduler (internal/sched) across a sweep of arrival
// rates, reporting throughput, tail latency, preemption/batching
// activity, and cross-tenant fairness. Serving is beyond the paper;
// the sweep exists to exercise the §IV-B context-switch machinery
// under contention and to pin its cycle-determinism (the same seed
// yields a byte-identical table at any -j width).

import (
	"fmt"
	"math/rand"

	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/sim"
)

// The sweep's shape: serveRequests requests per load point from
// serveTenants tenants on four cores. The offered rates straddle the
// 4-core capacity of the default mix (~0.2 done/Mcyc): light,
// near-saturation, and overloaded.
const (
	serveRequests = 36
	serveTenants  = 3
)

var serveLoadsPerM = []float64{0.05, 0.2, 0.8}

// serveModels is the request-mix model pool (kept to the cheaper
// workloads so the sweep stays fast).
var serveModels = []string{"mobilenet", "yololite", "alexnet"}

var serveCols = []experiments.Column[Episode]{
	colLoad, colRequests, colDone, colDrop, colAbort, colRej,
	experiments.Col("thru/Mcyc", "%.3f", func(e Episode) any { return e.CompletedPerMcyc() }),
	colP50, colP99, colPreempts, colBatched, colFlush,
	experiments.Col("fairness", "%.3f", func(e Episode) any { return e.Fairness() }),
}

// ServeTrace generates the deterministic request trace for one load
// point: exponential inter-arrivals at loadPerM requests per million
// cycles, tenants round-robined through a seeded RNG, models drawn
// from the serve pool, roughly half the requests secure, and every
// fifth request carrying a finish deadline. Exposed so the differential
// tests replay the exact trace the bench ran.
func ServeTrace(seed int64, loadPerM float64, n, tenants int) []sched.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]sched.Request, 0, n)
	var at float64
	for i := 1; i <= n; i++ {
		at += rng.ExpFloat64() * 1e6 / loadPerM
		tenant := rng.Intn(tenants)
		r := sched.Request{
			ID:       i,
			Tenant:   fmt.Sprintf("t%d", tenant),
			Model:    serveModels[rng.Intn(len(serveModels))],
			Priority: sched.Priority(rng.Intn(3)),
			Arrival:  sim.Cycle(at),
			Secure:   rng.Intn(2) == 0,
			KeyID:    fmt.Sprintf("t%d-key", tenant),
		}
		if i%5 == 0 {
			r.Deadline = r.Arrival + sim.Cycle(4e6/loadPerM)
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// ServeBench runs the load sweep. Each load point replays the seeded
// trace through one scheduler episode on a pooled protected SoC.
func ServeBench(seed int64) (*experiments.Result[Episode], error) {
	rows, err := experiments.MapIndexed(len(serveLoadsPerM), func(i int) (Episode, error) {
		load := serveLoadsPerM[i]
		ep, err := serveLoadPoint(seed+int64(i)*104729, load, serveRequests)
		if err != nil {
			return Episode{}, fmt.Errorf("serve load %g: %w", load, err)
		}
		return ep, nil
	})
	if err != nil {
		return nil, err
	}
	return &experiments.Result[Episode]{Rows: rows, Cols: serveCols}, nil
}

func serveLoadPoint(seed int64, load float64, requests int) (Episode, error) {
	ep, err := runEpisode(seed, serveTenants, nil, sched.Config{Cores: []int{0, 1, 2, 3}},
		ServeTrace(seed, load, requests, serveTenants),
		func(blobKey string) []byte { return []byte("serve model " + blobKey) })
	ep.LoadPerM = load
	return ep, err
}
