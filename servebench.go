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

// ServeBenchRow is one load point.
type ServeBenchRow struct {
	LoadPerM  float64
	Requests  int
	Completed int
	Dropped   int
	Aborted   int
	Rejected  int
	Makespan  sim.Cycle
	// ThroughputPerM is completed requests per million cycles of
	// makespan.
	ThroughputPerM float64
	P50, P99       sim.Cycle
	Preemptions    int
	BatchedRuns    int
	FlushCycles    sim.Cycle
	// Fairness is Jain's index over per-tenant completed counts
	// (1.0 = perfectly even service).
	Fairness float64
}

// ServeBenchResult is the full sweep.
type ServeBenchResult struct {
	Seed int64
	Rows []ServeBenchRow
}

// TableString renders the sweep.
func (r *ServeBenchResult) TableString() string {
	header := []string{"load/Mcyc", "reqs", "done", "drop", "abort", "rej",
		"thru/Mcyc", "p50-cyc", "p99-cyc", "preempts", "batched", "flush-cyc", "fairness"}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%g", row.LoadPerM),
			fmt.Sprintf("%d", row.Requests),
			fmt.Sprintf("%d", row.Completed),
			fmt.Sprintf("%d", row.Dropped),
			fmt.Sprintf("%d", row.Aborted),
			fmt.Sprintf("%d", row.Rejected),
			fmt.Sprintf("%.3f", row.ThroughputPerM),
			fmt.Sprintf("%d", row.P50),
			fmt.Sprintf("%d", row.P99),
			fmt.Sprintf("%d", row.Preemptions),
			fmt.Sprintf("%d", row.BatchedRuns),
			fmt.Sprintf("%d", row.FlushCycles),
			fmt.Sprintf("%.3f", row.Fairness),
		})
	}
	return experiments.Table(header, rows)
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
// trace through one scheduler episode on a pooled protected SoC and
// summarizes the report.
func ServeBench(seed int64) (*ServeBenchResult, error) {
	rows, err := experiments.MapIndexed(len(serveLoadsPerM), func(i int) (ServeBenchRow, error) {
		load := serveLoadsPerM[i]
		row, err := serveLoadPoint(seed+int64(i)*104729, load, serveRequests)
		if err != nil {
			return ServeBenchRow{}, fmt.Errorf("serve load %g: %w", load, err)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &ServeBenchResult{Seed: seed, Rows: rows}, nil
}

func serveLoadPoint(seed int64, load float64, requests int) (ServeBenchRow, error) {
	rep, _, err := runEpisode(seed, serveTenants, nil, sched.Config{Cores: []int{0, 1, 2, 3}},
		ServeTrace(seed, load, requests, serveTenants),
		func(blobKey string) []byte { return []byte("serve model " + blobKey) })
	if err != nil {
		return ServeBenchRow{}, err
	}
	row := ServeBenchRow{
		LoadPerM:       load,
		Requests:       len(rep.Results),
		Completed:      rep.Completed,
		Dropped:        rep.Dropped,
		Aborted:        rep.Aborted,
		Rejected:       rep.Rejected,
		Makespan:       rep.Makespan,
		ThroughputPerM: perMcyc(rep.Completed, rep.Makespan),
		Preemptions:    rep.Preemptions,
		BatchedRuns:    rep.BatchedRuns,
		FlushCycles:    rep.FlushCycles,
	}
	row.P50, row.P99 = percentiles(completedLatencies(rep))
	perTenant := map[string]float64{}
	for _, r := range rep.Results {
		if r.Completed {
			perTenant[r.Tenant]++
		}
	}
	row.Fairness = jain(perTenant)
	return row, nil
}

// jain is Jain's fairness index over the map's values.
func jain(xs map[string]float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
