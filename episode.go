package snpu

// One scheduler episode on a pooled protected System: the body the
// serve, resilience and decode sweeps share. Each sweep supplies its
// trace, scheduler config and blob plaintexts, then summarizes the
// report into its own row.

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/sim"
)

// runEpisode acquires a pooled protected System, arms plan when it is
// non-nil, and provisions ChaosKey(seed+t) under "t<t>-key" for each of
// the tenants. It then replays trace through one scheduler episode
// under cfg. Every secure non-decode request carries one sealed blob
// per (key, model), sealed from plaintext(key+"/"+model): batch-mates
// share it, and sealing cost scales with the blob, not the request. A
// submission refused with sched.ErrQueueFull is counted as shed.
func runEpisode(seed int64, tenants int, plan *fault.Plan, cfg sched.Config,
	trace []sched.Request, plaintext func(blobKey string) []byte) (rep *sched.Report, shed int, err error) {
	sys, err := acquireSystem()
	if err != nil {
		return nil, 0, err
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
			return nil, 0, err
		}
	}
	sc, err := sys.NewScheduler(cfg)
	if err != nil {
		return nil, 0, err
	}
	sealed := make(map[string][]byte)
	for _, r := range trace {
		if r.Secure && r.Decode == nil {
			blobKey := r.KeyID + "/" + r.Model
			if sealed[blobKey] == nil {
				if sealed[blobKey], err = SealModel(keys[r.KeyID], plaintext(blobKey)); err != nil {
					return nil, 0, err
				}
			}
			r.Sealed = sealed[blobKey]
		}
		switch err := sc.Submit(r); {
		case errors.Is(err, sched.ErrQueueFull):
			shed++
		case err != nil:
			return nil, 0, err
		}
	}
	rep, err = sc.Run()
	return rep, shed, err
}

// completedLatencies lists the latency of every completed request.
func completedLatencies(rep *sched.Report) []sim.Cycle {
	var lats []sim.Cycle
	for _, r := range rep.Results {
		if r.Completed {
			lats = append(lats, r.Latency())
		}
	}
	return lats
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

// perMcyc is n per million cycles of makespan (0 for an empty run).
func perMcyc(n int, makespan sim.Cycle) float64 {
	if makespan <= 0 {
		return 0
	}
	return float64(n) * 1e6 / float64(makespan)
}
