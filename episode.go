package snpu

// One scheduler episode on a pooled protected System: the body the
// serve, resilience and decode sweeps share. Each sweep supplies its
// trace, scheduler config and blob plaintexts; a sweep row is the
// Episode that comes back, and its table is a column list over
// Episode's fields and methods.

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Episode is one sweep row: the grid point a sweep varies and the
// report of the scheduler episode run there. Every derived metric is a
// method, so a table column and a snapshot summary read one formula.
type Episode struct {
	// LoadPerM is the offered load in requests per Mcyc (serve,
	// resilience), FaultPerM the transient-fault rate per Mcyc
	// (resilience), MaxBatch the decode batch width (decode).
	LoadPerM, FaultPerM float64
	MaxBatch            int
	Report              *sched.Report
	// Shed counts requests refused at submission plus the queued
	// requests shed mid-trace (Report.Shed).
	Shed int
}

// runEpisode acquires a pooled protected System, arms plan when it is
// non-nil, and provisions ChaosKey(seed+t) under "t<t>-key" for each of
// the tenants. It then replays trace through one scheduler episode
// under cfg. Every secure non-decode request carries one sealed blob
// per (key, model), sealed from plaintext(key+"/"+model): batch-mates
// share it, and sealing cost scales with the blob, not the request. A
// submission refused with sched.ErrQueueFull is counted as shed. The
// caller fills in the grid point.
func runEpisode(seed int64, tenants int, plan *fault.Plan, cfg sched.Config,
	trace []sched.Request, plaintext func(blobKey string) []byte) (Episode, error) {
	sys, err := acquireSystem()
	if err != nil {
		return Episode{}, err
	}
	defer sys.release()
	if plan != nil {
		sys.InstallFaultPlan(*plan)
	}
	keys := make(map[string][]byte, tenants)
	for t := 0; t < tenants; t++ {
		keyID := fmt.Sprintf("t%d-key", t)
		keys[keyID] = ChaosKey(seed + int64(t))
		if err := sys.ProvisionKey(keyID, keys[keyID]); err != nil {
			return Episode{}, err
		}
	}
	sc, err := sys.NewScheduler(cfg)
	if err != nil {
		return Episode{}, err
	}
	var ep Episode
	sealed := make(map[string][]byte)
	for _, r := range trace {
		if r.Secure && r.Decode == nil {
			blobKey := r.KeyID + "/" + r.Model
			if sealed[blobKey] == nil {
				if sealed[blobKey], err = SealModel(keys[r.KeyID], plaintext(blobKey)); err != nil {
					return Episode{}, err
				}
			}
			r.Sealed = sealed[blobKey]
		}
		switch err := sc.Submit(r); {
		case errors.Is(err, sched.ErrQueueFull):
			ep.Shed++
		case err != nil:
			return Episode{}, err
		}
	}
	if ep.Report, err = sc.Run(); err != nil {
		return Episode{}, err
	}
	ep.Shed += ep.Report.Shed
	return ep, nil
}

// Requests is the number of requests the episode admitted.
func (e Episode) Requests() int { return len(e.Report.Results) }

// Latency returns the p50 and p99 latency of the completed requests.
func (e Episode) Latency() (p50, p99 sim.Cycle) {
	var lats []sim.Cycle
	for _, r := range e.Report.Results {
		if r.Completed {
			lats = append(lats, r.Latency())
		}
	}
	return percentiles(lats)
}

// InterToken returns the p50 and p99 of the inter-token latency: the
// cycle gaps between a request's consecutive token retirements.
func (e Episode) InterToken() (p50, p99 sim.Cycle) {
	return interTokenPercentiles(e.Report.TokenTimes)
}

// CompletedPerMcyc is completions per million cycles of makespan (0
// for an empty run). With every request deadlined (resilience) it is
// the goodput.
func (e Episode) CompletedPerMcyc() float64 {
	if e.Report.Makespan <= 0 {
		return 0
	}
	return float64(e.Report.Completed) * 1e6 / float64(e.Report.Makespan)
}

// TokensPerSec is tokens retired over makespan at the 1 GHz cycle
// model (one cycle is one nanosecond).
func (e Episode) TokensPerSec() float64 {
	if e.Report.Makespan <= 0 {
		return 0
	}
	return float64(e.Report.Tokens) * 1e9 / float64(e.Report.Makespan)
}

// Joins counts mid-run continuous-batching admissions.
func (e Episode) Joins() int {
	n := 0
	for _, d := range e.Report.Decisions {
		if d.Event == "join" {
			n++
		}
	}
	return n
}

// Fairness is Jain's index over per-tenant completed counts (1.0 =
// perfectly even service). Every tenant with a result in the report
// counts, so a tenant that completed nothing pulls the index down.
func (e Episode) Fairness() float64 {
	done := map[string]float64{}
	for _, r := range e.Report.Results {
		c := 0.0
		if r.Completed {
			c = 1
		}
		done[r.Tenant] += c
	}
	var sum, sumSq float64
	for _, x := range done {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(done)) * sumSq)
}

// percentiles returns the p50 and p99 of xs, sorting xs in place; both
// are 0 when xs is empty.
func percentiles(xs []sim.Cycle) (p50, p99 sim.Cycle) {
	if len(xs) == 0 {
		return 0, 0
	}
	slices.Sort(xs)
	return xs[len(xs)/2], xs[(len(xs)*99)/100]
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

// The columns the sweep tables share; each sweep lists its own order.
var (
	colLoad     = experiments.Col("load/Mcyc", "%g", func(e Episode) any { return e.LoadPerM })
	colRequests = experiments.Col("reqs", "%d", func(e Episode) any { return e.Requests() })
	colDone     = experiments.Col("done", "%d", func(e Episode) any { return e.Report.Completed })
	colDrop     = experiments.Col("drop", "%d", func(e Episode) any { return e.Report.Dropped })
	colAbort    = experiments.Col("abort", "%d", func(e Episode) any { return e.Report.Aborted })
	colRej      = experiments.Col("rej", "%d", func(e Episode) any { return e.Report.Rejected })
	colP50      = experiments.Col("p50-cyc", "%d", func(e Episode) any { p50, _ := e.Latency(); return p50 })
	colP99      = experiments.Col("p99-cyc", "%d", func(e Episode) any { _, p99 := e.Latency(); return p99 })
	colPreempts = experiments.Col("preempts", "%d", func(e Episode) any { return e.Report.Preemptions })
	colBatched  = experiments.Col("batched", "%d", func(e Episode) any { return e.Report.BatchedRuns })
	colFlush    = experiments.Col("flush-cyc", "%d", func(e Episode) any { return e.Report.FlushCycles })
)
