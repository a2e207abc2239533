package driver

import (
	"fmt"

	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file implements the Fig. 15 experiment surface: two workloads
// running in parallel on two cores that share the scratchpad capacity.
// Under static partition, each task's compiler sees a fixed fraction
// of the scratchpad forever. Under sNPU's ID-based isolation, the
// driver is free to pick ANY split (security no longer depends on the
// allocation strategy), so it can search for the best one per pair —
// the "total-best strategy" in the paper.

// SpatialPolicy decides the scratchpad split between the trusted (A)
// and untrusted (B) task.
type SpatialPolicy struct {
	Name string
	// FractionA is A's share of the scratchpad; <= 0 means "dynamic:
	// search for the total-best split".
	FractionA float64
}

// StaticPartitions are the paper's static configurations.
func StaticPartitions() []SpatialPolicy {
	return []SpatialPolicy{
		{Name: "static-1/4", FractionA: 0.25},
		{Name: "static-1/2", FractionA: 0.50},
		{Name: "static-3/4", FractionA: 0.75},
	}
}

// DynamicPolicy is sNPU's ID-based dynamic allocation.
func DynamicPolicy() SpatialPolicy {
	return SpatialPolicy{Name: "snpu-dynamic", FractionA: -1}
}

// SpatialResult reports one paired run.
type SpatialResult struct {
	Policy    string
	FractionA float64
	CyclesA   sim.Cycle
	CyclesB   sim.Cycle
	// SoloA/SoloB are the full-scratchpad solo baselines used to
	// normalize (zero when the caller did not supply them).
	SoloA, SoloB sim.Cycle
}

// Makespan is the later finish.
func (r SpatialResult) Makespan() sim.Cycle {
	if r.CyclesA > r.CyclesB {
		return r.CyclesA
	}
	return r.CyclesB
}

// Objective is what the total-best strategy minimizes: the worse of
// the two tasks' slowdowns relative to their solo runs (so a short
// task is not starved just because the long task dominates absolute
// time). Without solo baselines it degrades to the raw makespan.
func (r SpatialResult) Objective() float64 {
	if r.SoloA <= 0 || r.SoloB <= 0 {
		return float64(r.Makespan())
	}
	a := float64(r.CyclesA) / float64(r.SoloA)
	b := float64(r.CyclesB) / float64(r.SoloB)
	if a > b {
		return a
	}
	return b
}

// dynamicFractions is the split candidate set the driver searches
// under ID-based isolation. It includes the static fractions, so the
// dynamic policy can never lose to them on the same objective.
var dynamicFractions = []float64{0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8}

// RunSpatialPair runs modelA (trusted) on core 0 and modelB
// (untrusted) on core 1 of n, with the scratchpad split per policy.
// Both cores contend on the shared DRAM channel, which is what couples
// their runtimes. soloA/soloB are the full-scratchpad solo baselines
// (pass 0 to optimize raw makespan instead). The caller passes a fresh
// NPU (or calls ResetTiming) per invocation so runs do not contend
// with history.
func RunSpatialPair(n *npu.NPU, modelA, modelB workload.Workload, policy SpatialPolicy, soloA, soloB sim.Cycle) (SpatialResult, error) {
	if policy.FractionA > 0 {
		r, err := runSplit(n, modelA, modelB, policy.Name, policy.FractionA)
		r.SoloA, r.SoloB = soloA, soloB
		return r, err
	}
	// Dynamic: search candidate splits for the best objective. The
	// search is the driver's business — with ID-based isolation any
	// split is equally secure.
	var best SpatialResult
	first := true
	for _, frac := range dynamicFractions {
		n.ResetTiming()
		r, err := runSplit(n, modelA, modelB, policy.Name, frac)
		if err != nil {
			return SpatialResult{}, err
		}
		r.SoloA, r.SoloB = soloA, soloB
		if first || r.Objective() < best.Objective() {
			best = r
			first = false
		}
	}
	return best, nil
}

func runSplit(n *npu.NPU, modelA, modelB workload.Workload, name string, fracA float64) (SpatialResult, error) {
	cfg := n.Config()
	budgetA := int(float64(cfg.SpadBytes) * fracA)
	budgetB := cfg.SpadBytes - budgetA
	progA, _, err := npu.CompileCached(modelA, cfg, budgetA, npu.DefaultLayout)
	if err != nil {
		return SpatialResult{}, fmt.Errorf("driver: compile %s@%.2f: %w", modelA.Name, fracA, err)
	}
	progB, _, err := npu.CompileCached(modelB, cfg, budgetB, npu.DefaultLayout)
	if err != nil {
		return SpatialResult{}, fmt.Errorf("driver: compile %s@%.2f: %w", modelB.Name, 1-fracA, err)
	}
	coreA, err := n.Core(0)
	if err != nil {
		return SpatialResult{}, err
	}
	coreB, err := n.Core(1)
	if err != nil {
		return SpatialResult{}, err
	}
	// Interleave the two executions so DRAM-channel contention is
	// mutual rather than sequential.
	execs := []*npu.Exec{npu.NewExec(coreA, progA, 101), npu.NewExec(coreB, progB, 102)}
	now := make([]sim.Cycle, len(execs))
	if err := npu.Interleave(execs, now, nil); err != nil {
		return SpatialResult{}, err
	}
	return SpatialResult{Policy: name, FractionA: fracA, CyclesA: now[0], CyclesB: now[1]}, nil
}
