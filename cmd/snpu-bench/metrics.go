package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	snpu "repro"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/monitor"
	"repro/internal/npu"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Metrics support for the bench harness: -metrics-dir exports one
// Prometheus/JSON metrics pair per experiment (aggregated over every
// SoC the experiment booted), and -metrics-overhead measures the
// enabled-vs-disabled cost of the observability layer on a fixed
// workload, which CI gates at metricsOverheadLimitPct.

// metricsOverheadLimitPct is the acceptance ceiling for the
// observability layer's measured wall-time overhead.
const metricsOverheadLimitPct = 2.0

// writeExperimentMetrics aggregates the counter sinks of every SoC an
// experiment booted and writes dir/<name>.prom and dir/<name>.json.
// The canonical counter set is materialized first so each dump covers
// the full component namespace, zeros included; summing across sinks
// is commutative, so the files are byte-identical at any -j.
func writeExperimentMetrics(dir, name string, sinks []*sim.Stats) error {
	reg := obs.NewRegistry()
	canon := sim.NewStats()
	for _, n := range sim.CanonicalCounters() {
		canon.Counter(n)
	}
	reg.AttachStats(canon)
	for _, s := range sinks {
		reg.AttachStats(s)
	}
	promPath := filepath.Join(dir, name+".prom")
	f, err := os.Create(promPath)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	jf, err := os.Create(filepath.Join(dir, name+".json"))
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(jf); err != nil {
		jf.Close()
		return err
	}
	return jf.Close()
}

// overheadProbeRounds / overheadProbeRepeats size the overhead
// measurement: each round times overheadProbeRepeats back-to-back
// inferences with the observer detached and attached, and the reading
// is the median over rounds of the attached/detached ratio, which
// filters scheduler noise and host speed drift (both halves of a round
// run within milliseconds).
const (
	overheadProbeRounds  = 300
	overheadProbeRepeats = 10
	overheadProbeModel   = "yololite"
)

// overheadReading is the probe's result in percent: the median over
// rounds of attached/detached wall time minus one, over all rounds and
// over the rounds in which each side ran first.
type overheadReading struct {
	pct, offFirst, onFirst float64
}

// measureMetricsOverhead reports the observability layer's wall-time
// overhead on the probe workload. One protected SoC holds one task,
// compiled and mapped before any timing so no timed run compiles, and
// each round runs it with the SoC's observer detached and attached,
// alternating which goes first. Both sides share the SoC and its
// memory, so the ratio holds only the instrumentation's cost. It also
// proves the layer is passive and that it timed what it claims: every
// run must reproduce the first run's cycle count, and each batch must
// grow npu.tile.cycles by one observation per compute op attached and
// by none detached, or the probe errors out.
func measureMetricsOverhead() (overheadReading, error) {
	sys, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		return overheadReading{}, err
	}
	o := sys.EnableObservability(obs.Config{})
	w, err := workload.Lookup(overheadProbeModel)
	if err != nil {
		return overheadReading{}, err
	}
	task, err := sys.Driver().Submit(w, npu.DefaultLayout, false)
	if err != nil {
		return overheadReading{}, err
	}
	vbase, size := mem.PageWindow(task.Program.VASpan())
	if rep := sys.Monitor().Dispatch(monitor.Call{
		Func: monitor.FnMapNonSecure,
		Args: []uint64{0, 1, uint64(vbase), uint64(task.Chunk), size},
	}); rep.Err != nil {
		return overheadReading{}, rep.Err
	}
	core, err := sys.NPU().Core(0)
	if err != nil {
		return overheadReading{}, err
	}
	tiles := o.Registry().Histogram("npu.tile.cycles")
	var computeOps int64
	c := task.Program.Cursor()
	for op, ok := c.Next(); ok; op, ok = c.Next() {
		if op.Kind == npu.OpCompute {
			computeOps++
		}
	}
	var want sim.Cycle
	var wall [2]time.Duration // by side: 0 = detached, 1 = attached
	run := func(side int) error {
		if side == 1 {
			sys.NPU().AttachObserver(o)
		} else {
			sys.NPU().AttachObserver(nil)
		}
		before := tiles.Count()
		start := time.Now()
		for i := 0; i < overheadProbeRepeats; i++ {
			sys.NPU().ResetTiming()
			cycles, err := npu.NewExec(core, task.Program, task.ID).Run(0)
			if err != nil {
				return err
			}
			if want == 0 {
				want = cycles
			}
			if cycles != want {
				return fmt.Errorf("metrics probe: observability changed simulated timing (%d cycles, want %d)", cycles, want)
			}
		}
		wall[side] = time.Since(start)
		wantTiles := int64(side) * overheadProbeRepeats * computeOps
		if got := tiles.Count() - before; got != wantTiles {
			return fmt.Errorf("metrics probe: a batch with the observer attached=%v observed %d compute tiles, want %d", side == 1, got, wantTiles)
		}
		return nil
	}
	// One untimed round per side: both reach steady state.
	if err := run(0); err != nil {
		return overheadReading{}, err
	}
	if err := run(1); err != nil {
		return overheadReading{}, err
	}
	var ratios [2][]float64 // by the side that ran first
	for r := 0; r < overheadProbeRounds; r++ {
		first := r % 2
		if err := run(first); err != nil {
			return overheadReading{}, err
		}
		if err := run(1 - first); err != nil {
			return overheadReading{}, err
		}
		ratios[first] = append(ratios[first], float64(wall[1])/float64(wall[0]))
	}
	// The readings are kept signed: a negative one (attached measured
	// faster) is noise and is recorded as such rather than rounded to a
	// too-clean zero.
	return overheadReading{
		pct:      medianPct(append(append([]float64(nil), ratios[0]...), ratios[1]...)),
		offFirst: medianPct(ratios[0]),
		onFirst:  medianPct(ratios[1]),
	}, nil
}

// medianPct returns the median of ratios as a percentage above 1.
func medianPct(ratios []float64) float64 {
	sort.Float64s(ratios)
	n := len(ratios)
	med := ratios[n/2]
	if n%2 == 0 {
		med = (ratios[n/2-1] + ratios[n/2]) / 2
	}
	return (med - 1) * 100
}

// collectExperimentMetrics wraps one experiment run with a stats
// collection window and writes its aggregated metrics files.
func collectExperimentMetrics(dir, name string, run func() error) error {
	experiments.CollectSoCStats(true)
	defer experiments.CollectSoCStats(false)
	if err := run(); err != nil {
		return err
	}
	return writeExperimentMetrics(dir, name, experiments.DrainSoCStats())
}
