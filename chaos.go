package snpu

// The chaos experiment: sweep seeded fault rates against a secure
// inference and report what the detection/recovery stack did about
// them. This extends beyond the paper (sNPU evaluates security and
// performance, not reliability); it exists to demonstrate the
// fault-safety invariant — faults degrade performance, never
// isolation — and to quantify the recovery cost.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/sim"
)

// chaosRates is the fault-rate sweep (events per million cycles).
// Rate 0 is the control row: it must match an uninstrumented run
// cycle-for-cycle.
var chaosRates = []float64{0, 1, 5, 20}

// ChaosRow is one rate point of the sweep.
type ChaosRow struct {
	RatePerM     float64
	Scheduled    int   // events in the generated plan
	Injected     int64 // events that actually fired
	ECCCorrected int64
	NoCRetries   int64
	DMARetries   int64
	ParityErrors int64 // scratchpad + IOTLB parity detections
	CoreHangs    int64
	Restarts     int
	Remaps       int
	Aborted      bool
	Cycles       sim.Cycle
	OverheadPct  float64 // vs the rate-0 control row
}

// ChaosResult is the full sweep for one model and seed.
type ChaosResult struct {
	Model string
	Seed  int64
	Rows  []ChaosRow
}

// TableString renders the sweep as a text table.
func (r *ChaosResult) TableString() string {
	header := []string{"rate/Mcyc", "sched", "fired", "ecc-corr", "noc-rty", "dma-rty", "parity", "hangs", "restarts", "remaps", "outcome", "cycles", "overhead"}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		outcome := "recovered"
		if row.Aborted {
			outcome = "aborted"
		} else if row.Injected == 0 {
			outcome = "clean"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%g", row.RatePerM),
			fmt.Sprintf("%d", row.Scheduled),
			fmt.Sprintf("%d", row.Injected),
			fmt.Sprintf("%d", row.ECCCorrected),
			fmt.Sprintf("%d", row.NoCRetries),
			fmt.Sprintf("%d", row.DMARetries),
			fmt.Sprintf("%d", row.ParityErrors),
			fmt.Sprintf("%d", row.CoreHangs),
			fmt.Sprintf("%d", row.Restarts),
			fmt.Sprintf("%d", row.Remaps),
			outcome,
			fmt.Sprintf("%d", row.Cycles),
			fmt.Sprintf("%+.2f%%", row.OverheadPct),
		})
	}
	return experiments.Table(header, rows)
}

// ChaosKey derives the sealing key for seeded (reproducible) secure
// runs: the CLIs and the chaos sweep must not read crypto/rand.
func ChaosKey(seed int64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	k := sha256.Sum256(b[:])
	return k[:]
}

// Chaos runs the fault-rate sweep for one model. Each rate gets a plan
// generated from a seed derived deterministically from (seed, rate
// index) over the control run's horizon, a scrubbed SoC from the pool,
// and a resilient secure run. The same seed always yields a byte-identical
// table.
func Chaos(model string, seed int64) (*ChaosResult, error) {
	res := &ChaosResult{Model: model, Seed: seed}

	// Control run: empty plan, establishes the horizon and the
	// overhead baseline.
	control, _, err := chaosRun(model, seed, fault.Plan{})
	if err != nil {
		return nil, err
	}
	horizon := control.Cycles

	for i, rate := range chaosRates {
		row := ChaosRow{RatePerM: rate}
		if rate == 0 {
			row.Cycles = control.Cycles
			row.fill(control, nil)
			res.Rows = append(res.Rows, row)
			continue
		}
		planSeed := seed + int64(i+1)*7919 // distinct stream per rate point
		plan := fault.Generate(planSeed, horizon, fault.UniformRates(rate))
		row.Scheduled = len(plan.Events)
		rep, snap, err := chaosRun(model, seed, plan)
		if err != nil && !errors.Is(err, ErrTaskAborted) {
			return nil, err
		}
		row.Cycles = rep.Cycles
		if rep.Aborted {
			row.Aborted = true
		}
		row.fill(rep, snap)
		if !row.Aborted && control.Cycles > 0 {
			row.OverheadPct = 100 * (float64(row.Cycles) - float64(control.Cycles)) / float64(control.Cycles)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// fill fills the detection/recovery columns from a run report and a
// counter snapshot.
func (row *ChaosRow) fill(rep SecureRunReport, snap map[string]int64) {
	row.Injected = rep.Faults
	row.Restarts = rep.Restarts
	row.Remaps = rep.Remaps
	if snap != nil {
		row.ECCCorrected = snap[sim.CtrECCCorrected]
		row.NoCRetries = snap[sim.CtrNoCRetries]
		row.DMARetries = snap[sim.CtrDMARetries]
		row.ParityErrors = snap[sim.CtrSpadParityErrors] + snap[sim.CtrIOTLBParityErrors]
		row.CoreHangs = snap[sim.CtrCoreHangs]
	}
}

// chaosRun takes a scrubbed protected SoC from the pool, arms it with
// the plan, and runs one resilient secure inference.
func chaosRun(model string, seed int64, plan fault.Plan) (SecureRunReport, map[string]int64, error) {
	sys, err := acquireSystem()
	if err != nil {
		return SecureRunReport{}, nil, err
	}
	defer sys.release()
	key := ChaosKey(seed)
	if err := sys.ProvisionKey("chaos-owner", key); err != nil {
		return SecureRunReport{}, nil, err
	}
	sealed, err := SealModel(key, []byte("chaos model "+model))
	if err != nil {
		return SecureRunReport{}, nil, err
	}
	h, err := sys.SubmitSecure(model, "chaos-owner", sealed)
	if err != nil {
		return SecureRunReport{}, nil, err
	}
	sys.InstallFaultPlan(plan)
	rep, err := sys.RunSecureResilient(h, DefaultMaxRestarts)
	return rep, sys.Stats().Snapshot(), err
}
