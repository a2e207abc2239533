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

// outcome names what the run came to.
func (row ChaosRow) outcome() string {
	switch {
	case row.Aborted:
		return "aborted"
	case row.Injected == 0:
		return "clean"
	}
	return "recovered"
}

var chaosCols = []experiments.Column[ChaosRow]{
	experiments.Col("rate/Mcyc", "%g", func(r ChaosRow) any { return r.RatePerM }),
	experiments.Col("sched", "%d", func(r ChaosRow) any { return r.Scheduled }),
	experiments.Col("fired", "%d", func(r ChaosRow) any { return r.Injected }),
	experiments.Col("ecc-corr", "%d", func(r ChaosRow) any { return r.ECCCorrected }),
	experiments.Col("noc-rty", "%d", func(r ChaosRow) any { return r.NoCRetries }),
	experiments.Col("dma-rty", "%d", func(r ChaosRow) any { return r.DMARetries }),
	experiments.Col("parity", "%d", func(r ChaosRow) any { return r.ParityErrors }),
	experiments.Col("hangs", "%d", func(r ChaosRow) any { return r.CoreHangs }),
	experiments.Col("restarts", "%d", func(r ChaosRow) any { return r.Restarts }),
	experiments.Col("remaps", "%d", func(r ChaosRow) any { return r.Remaps }),
	experiments.Col("outcome", "%s", func(r ChaosRow) any { return r.outcome() }),
	experiments.Col("cycles", "%d", func(r ChaosRow) any { return r.Cycles }),
	experiments.Col("overhead", "%+.2f%%", func(r ChaosRow) any { return r.OverheadPct }),
}

// ChaosKey derives the sealing key for seeded (reproducible) secure
// runs: the CLIs and the chaos sweep must not read crypto/rand.
func ChaosKey(seed int64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	k := sha256.Sum256(b[:])
	return k[:]
}

// Chaos runs the fault-rate sweep for one model. A control run with
// an empty plan sets the horizon and the overhead baseline and is the
// rate-0 row. Each other rate gets a plan generated from a seed derived
// deterministically from (seed, rate index) over that horizon, a
// scrubbed SoC from the pool, and a resilient secure run; the rate
// cells fan out over the experiments worker pool. The same seed always
// yields a byte-identical table.
func Chaos(model string, seed int64) (*experiments.Result[ChaosRow], error) {
	control, _, err := chaosRun(model, seed, fault.Plan{})
	if err != nil {
		return nil, err
	}
	rows, err := experiments.MapIndexed(len(chaosRates), func(i int) (ChaosRow, error) {
		row := ChaosRow{RatePerM: chaosRates[i]}
		if row.RatePerM == 0 {
			row.fill(control, nil)
			return row, nil
		}
		planSeed := seed + int64(i+1)*7919 // distinct stream per rate point
		plan := fault.Generate(planSeed, control.Cycles, fault.UniformRates(row.RatePerM))
		row.Scheduled = len(plan.Events)
		rep, snap, err := chaosRun(model, seed, plan)
		if err != nil && !errors.Is(err, ErrTaskAborted) {
			return ChaosRow{}, err
		}
		row.fill(rep, snap)
		if !row.Aborted && control.Cycles > 0 {
			row.OverheadPct = 100 * (float64(row.Cycles) - float64(control.Cycles)) / float64(control.Cycles)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &experiments.Result[ChaosRow]{Rows: rows, Cols: chaosCols}, nil
}

// fill fills the outcome and detection/recovery columns from a run
// report and a counter snapshot (nil for the control row).
func (row *ChaosRow) fill(rep SecureRunReport, snap map[string]int64) {
	row.Cycles = rep.Cycles
	row.Aborted = rep.Aborted
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
	rep, err := sys.RunSecureResilient(h)
	return rep, sys.Stats().Snapshot(), err
}
