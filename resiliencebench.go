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

// Every request carries a deadline, so completed == deadline-met and
// the completion rate is the goodput.
var resilienceCols = []experiments.Column[Episode]{
	experiments.Col("fault/Mcyc", "%g", func(e Episode) any { return e.FaultPerM }),
	colLoad, colRequests, colDone,
	experiments.Col("goodput/Mcyc", "%.3f", func(e Episode) any { return e.CompletedPerMcyc() }),
	colP50, colP99,
	experiments.Col("retries", "%d", func(e Episode) any { return e.Report.Retries }),
	experiments.Col("recovered", "%d", func(e Episode) any { return e.Report.Recovered }),
	experiments.Col("shed", "%d", func(e Episode) any { return e.Shed }),
	colDrop, colAbort, colRej, colFlush,
}

// resilienceHorizon is the fault-plan horizon for one cell: a
// deterministic function of the trace shape (never a control run, so
// no cell depends on another's timing). It generously covers the
// expected makespan; events past the actual makespan simply never fire.
func resilienceHorizon(load float64, requests int) sim.Cycle {
	return sim.Cycle(float64(requests)/load*1e6) + 100_000_000
}

// resilienceTrace is ServeTrace with every request deadlined: the
// sparse start deadlines ServeTrace already assigns stay, and every
// other request gets a looser finish deadline at arrival + 16/load
// Mcyc.
func resilienceTrace(seed int64, loadPerM float64, n, tenants int) []sched.Request {
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
// installs a seeded transient-fault plan on a pooled protected SoC and
// replays the deadlined trace through one scheduler episode with
// retries and queue bounds armed.
func ResilienceBench(seed int64, small bool) (*experiments.Result[Episode], error) {
	requests, loads := resilienceRequests, resilienceLoadsPerM
	if small {
		requests, loads = 12, []float64{0.4}
	}
	rates := resilienceFaultRatesPerM
	rows, err := experiments.MapIndexed(len(rates)*len(loads), func(i int) (Episode, error) {
		rate, load := rates[i/len(loads)], loads[i%len(loads)]
		ep, err := resilienceCell(seed+int64(i)*104729, rate, load, requests)
		if err != nil {
			return Episode{}, fmt.Errorf("resilience cell fault=%g load=%g: %w", rate, load, err)
		}
		return ep, nil
	})
	if err != nil {
		return nil, err
	}
	return &experiments.Result[Episode]{Rows: rows, Cols: resilienceCols}, nil
}

func resilienceCell(seed int64, rate, load float64, requests int) (Episode, error) {
	plan := fault.Generate(seed, resilienceHorizon(load, requests), fault.TransientRates(rate))
	ep, err := runEpisode(seed, resilienceTenants, &plan, sched.Config{
		Cores:             []int{0, 1, 2, 3},
		MaxRestarts:       2,
		MaxQueuePerTenant: 5,
	}, resilienceTrace(seed, load, requests, resilienceTenants),
		func(blobKey string) []byte { return []byte("resilience model " + blobKey) })
	ep.FaultPerM, ep.LoadPerM = rate, load
	return ep, err
}
