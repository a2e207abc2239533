package snpu

// The resilience experiment: a fault-rate × offered-load grid over the
// multi-tenant scheduler with the full resilience policy armed — every
// request deadlined, transient faults injected from a seeded plan,
// fault-aborted secure tasks retried with exponential backoff from
// their checkpoints, per-tenant queue bounds shedding overload. Each
// cell reports goodput (deadline-met completions per million cycles),
// tail latency, and the recovery/shed/abort split, so the sweep shows
// what the §IV-B fail-closed machinery costs and what the policy layer
// buys back. Cells fan out over the experiments worker pool; the table
// is byte-identical at any -j width and across fresh SoCs.

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/sim"
)

// The grid's shape: resilienceRequests requests per cell from
// resilienceTenants tenants on four cores, every request deadlined,
// with a per-request retry budget of 2 and per-tenant queues bounded
// at 5. The fault rates feed fault.TransientRates; an idle core
// accrues every overdue event and delivers the burst at dispatch, so
// rates beyond a few per Mcyc would make every first attempt lethal.
const (
	resilienceRequests = 24
	resilienceTenants  = 3
)

var (
	resilienceLoadsPerM      = []float64{0.2, 0.8}
	resilienceFaultRatesPerM = []float64{0.1, 1}
)

// ResilienceBenchRow is one (fault rate, load) cell.
type ResilienceBenchRow struct {
	FaultPerM float64
	LoadPerM  float64
	Requests  int
	Completed int
	// GoodputPerM is deadline-met completions per million cycles of
	// makespan (every request carries a deadline, so completed ==
	// deadline-met by construction).
	GoodputPerM float64
	P50, P99    sim.Cycle
	Retries     int
	Recovered   int
	Shed        int
	Dropped     int
	Aborted     int
	Rejected    int
	FlushCycles sim.Cycle
	Makespan    sim.Cycle
}

// ResilienceBenchResult is the full grid.
type ResilienceBenchResult struct {
	Seed int64
	Rows []ResilienceBenchRow
}

// TableString renders the grid.
func (r *ResilienceBenchResult) TableString() string {
	header := []string{"fault/Mcyc", "load/Mcyc", "reqs", "done", "goodput/Mcyc",
		"p50-cyc", "p99-cyc", "retries", "recovered", "shed", "drop", "abort", "rej", "flush-cyc"}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%g", row.FaultPerM),
			fmt.Sprintf("%g", row.LoadPerM),
			fmt.Sprintf("%d", row.Requests),
			fmt.Sprintf("%d", row.Completed),
			fmt.Sprintf("%.3f", row.GoodputPerM),
			fmt.Sprintf("%d", row.P50),
			fmt.Sprintf("%d", row.P99),
			fmt.Sprintf("%d", row.Retries),
			fmt.Sprintf("%d", row.Recovered),
			fmt.Sprintf("%d", row.Shed),
			fmt.Sprintf("%d", row.Dropped),
			fmt.Sprintf("%d", row.Aborted),
			fmt.Sprintf("%d", row.Rejected),
			fmt.Sprintf("%d", row.FlushCycles),
		})
	}
	return experiments.Table(header, rows)
}

// resilienceHorizon is the fault-plan horizon for one cell: a
// deterministic function of the trace shape (never a control run, so
// no cell depends on another's timing). It generously covers the
// expected makespan; events past the actual makespan simply never fire.
func resilienceHorizon(load float64, requests int) sim.Cycle {
	return sim.Cycle(float64(requests)/load*1e6) + 100_000_000
}

// ResilienceTrace is ServeTrace with every request deadlined: the
// sparse start deadlines ServeTrace already assigns stay, and every
// other request gets a looser finish deadline at arrival + 16/load
// Mcyc. Exposed so differential tests replay the bench's exact trace.
func ResilienceTrace(seed int64, loadPerM float64, n, tenants int) []sched.Request {
	reqs := ServeTrace(seed, loadPerM, n, tenants)
	for i := range reqs {
		if reqs[i].Deadline == 0 {
			reqs[i].Deadline = reqs[i].Arrival + sim.Cycle(16e6/loadPerM)
		}
	}
	return reqs
}

// ResilienceBench runs the grid; small selects the CI smoke shape
// (12 requests, one load of 0.4/Mcyc, both fault rates). Each cell
// installs a seeded transient-fault plan on a pooled protected SoC,
// replays the deadlined trace through one scheduler episode with
// retries and queue bounds armed, and summarizes the report.
func ResilienceBench(seed int64, small bool) (*ResilienceBenchResult, error) {
	requests, loads := resilienceRequests, resilienceLoadsPerM
	if small {
		requests, loads = 12, []float64{0.4}
	}
	rates := resilienceFaultRatesPerM
	rows, err := experiments.MapIndexed(len(rates)*len(loads), func(i int) (ResilienceBenchRow, error) {
		rate, load := rates[i/len(loads)], loads[i%len(loads)]
		row, err := resilienceCell(seed+int64(i)*104729, rate, load, requests)
		if err != nil {
			return ResilienceBenchRow{}, fmt.Errorf("resilience cell fault=%g load=%g: %w", rate, load, err)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &ResilienceBenchResult{Seed: seed, Rows: rows}, nil
}

func resilienceCell(seed int64, rate, load float64, requests int) (ResilienceBenchRow, error) {
	plan := fault.Generate(seed, resilienceHorizon(load, requests), fault.TransientRates(rate))
	trace := ResilienceTrace(seed, load, requests, resilienceTenants)
	rep, shed, err := runEpisode(seed, resilienceTenants, &plan, sched.Config{
		Cores:             []int{0, 1, 2, 3},
		MaxRestarts:       2,
		MaxQueuePerTenant: 5,
	}, trace, func(blobKey string) []byte { return []byte("resilience model " + blobKey) })
	if err != nil {
		return ResilienceBenchRow{}, err
	}
	row := ResilienceBenchRow{
		FaultPerM:   rate,
		LoadPerM:    load,
		Requests:    len(trace) - shed,
		Completed:   rep.Completed,
		GoodputPerM: perMcyc(rep.Completed, rep.Makespan),
		Retries:     rep.Retries,
		Recovered:   rep.Recovered,
		// Shed at admission counts with the victims shed mid-trace.
		Shed:        shed + rep.Shed,
		Dropped:     rep.Dropped,
		Aborted:     rep.Aborted,
		Rejected:    rep.Rejected,
		FlushCycles: rep.FlushCycles,
		Makespan:    rep.Makespan,
	}
	row.P50, row.P99 = percentiles(completedLatencies(rep))
	return row, nil
}
