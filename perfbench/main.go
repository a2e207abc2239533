// Command perfbench is the repository benchmark. It runs one of three
// closed-loop workloads — one client, in process, no sockets — against
// the public APIs of the root snpu package, internal/serve and
// internal/experiments, checks the simulated outputs, and prints every
// metric by name and unit. See README.md for the workloads, the metrics
// and what each per-layer figure should move.
//
//	bash perfbench/run.sh --workload secure-infer --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, measured untraced; with --trace 1
// they are the per-layer ones, from an untraced phase (counts) and a
// traced replay of the same sequence (spans).
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// minOps is the fewest operations a phase runs, past --seconds if
	// need be, so p90 always rests on at least 100 samples.
	minOps = 100
	// setupRuns is how many set-ups setup_s is the median of: this
	// process's own plus setupRuns-1 fresh child processes.
	setupRuns = 3
	// heapWindow is how many operations run after a measured phase,
	// untimed, each followed by a forced GC, for heap_mb. It spans more
	// than one fill-and-drop cycle of the 128-entry compile cache under
	// serve's compile churn (about 44 episodes), so the peak it sees is
	// the full cache whatever point of the cycle the phase ended at.
	heapWindow = 60
	// spanDir holds traced runs' span files, inside the checkout.
	spanDir = ".bench_build/perfbench-spans"
)

// bench is one workload: a seeded, replayable operation sequence on
// one in-process system.
type bench interface {
	// setup boots and warms the system; its wall time is setup_s.
	setup() error
	// do runs operation i of the seed's sequence. tr is nil when
	// untraced.
	do(i int, tr *tracer) (outcome, error)
	// prefix is how many leading operations the simulated metrics,
	// digest and per-operation counts cover.
	prefix() int
	// roundEnd reports whether n operations end a whole round of the
	// sequence; phases stop only there, so every phase runs the same
	// mix.
	roundEnd(n int) bool
	// counters returns the cumulative counters the program exports
	// (sim.Stats, compile cache, SoC pool, cells run).
	counters() map[string]float64
}

// prober is a bench with per-layer counts that need a separate
// probe (read after the traced replay, outside its timing).
type prober interface {
	probe() (map[string]float64, error)
}

var workloads = map[string]func(seed int64) bench{
	"secure-infer": func(seed int64) bench { return newSecureInfer(seed) },
	"serve":        func(seed int64) bench { return newServeLoad(seed) },
	"figures":      func(seed int64) bench { return newFigures(seed) },
}

// outcome is what one operation produced.
type outcome struct {
	// latency overrides the operation's wall time when the latency
	// definition covers only part of it (serve: first submit to run
	// response).
	latency time.Duration
	// units is completed requests, or figure cells run.
	units int
	// simLatency holds simulated latencies in cycles; simTime is the
	// simulated time simUnits units took.
	simLatency []float64
	simTime    float64
	simUnits   int
	violations []string
	// output is a canonical rendering of the simulated outputs (cycles,
	// decision logs, figure tables) for the digest.
	output []byte
	// traffic counts requests (or cells) carrying each property;
	// requests is the total they are shares of.
	traffic  map[string]int
	requests int
	// layer holds additive per-layer counts; queueWait holds
	// Start-Arrival cycles of completed requests.
	layer     map[string]float64
	queueWait []float64
}

// phase accumulates one measured loop.
type phase struct {
	ops, failed int // attempted and failed, heap window included
	violations  []string
	elapsed     time.Duration
	latencies   []float64 // ms, one per timed operation
	units       int
	peakHeap    float64 // bytes, over the heap window
	traffic     map[string]int
	requests    int

	// Over the first prefix operations only:
	simLatency []float64
	simTime    float64
	simUnits   int
	layer      map[string]float64
	queueWait  []float64
	digest     hash.Hash
	counters   [2]map[string]float64 // at start, at end of prefix

	mem [2]runtime.MemStats // at start, at end
}

var liveHeap = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// runPhase replays the workload's sequence from operation 0 in whole
// rounds until seconds have passed and at least minOps and prefix
// operations ran, then runs window more operations untimed for the
// heap peak.
func runPhase(w bench, seconds float64, tr *tracer, window int) *phase {
	p := &phase{traffic: map[string]int{}, layer: map[string]float64{}, digest: sha256.New()}
	n := w.prefix()
	runtime.ReadMemStats(&p.mem[0])
	p.counters[0] = w.counters()
	start := time.Now()
	done := func(ops int) bool {
		return time.Since(start).Seconds() >= seconds && ops >= max(minOps, n) && w.roundEnd(ops)
	}
	// check counts operation i as attempted, and as failed if it
	// errored or broke an output check.
	check := func(i int, out outcome, err error) {
		p.ops++
		if err != nil {
			out.violations = append(out.violations, err.Error())
		}
		if len(out.violations) > 0 {
			p.failed++
			if len(p.violations) < 10 {
				p.violations = append(p.violations, fmt.Sprintf("op %d: %s", i, strings.Join(out.violations, "; ")))
			}
		}
	}
	i := 0
	for ; !done(i); i++ {
		if tr != nil {
			tr.op = i
		}
		t0 := time.Now()
		out, err := w.do(i, tr)
		wall := time.Since(t0)
		check(i, out, err)
		if out.latency > 0 {
			wall = out.latency
		}
		p.latencies = append(p.latencies, float64(wall)/1e6)
		p.units += out.units
		p.requests += out.requests
		for k, v := range out.traffic {
			p.traffic[k] += v
		}
		if i < n {
			p.simLatency = append(p.simLatency, out.simLatency...)
			p.simTime += out.simTime
			p.simUnits += out.simUnits
			for k, v := range out.layer {
				p.layer[k] += v
			}
			p.queueWait = append(p.queueWait, out.queueWait...)
			fmt.Fprintf(p.digest, "op %d\n", i)
			p.digest.Write(out.output)
			if i == n-1 {
				p.counters[1] = w.counters()
			}
		}
	}
	p.elapsed = time.Since(start)
	runtime.ReadMemStats(&p.mem[1])
	p.peakHeap = forcedLiveHeap()
	for end := i + window; i < end; i++ {
		out, err := w.do(i, nil)
		check(i, out, err)
		p.peakHeap = max(p.peakHeap, forcedLiveHeap())
	}
	return p
}

// forcedLiveHeap forces a GC and returns the heap it marked live, in
// bytes.
func forcedLiveHeap() float64 {
	runtime.GC()
	metrics.Read(liveHeap)
	return float64(liveHeap[0].Value.Uint64())
}

// delta is a prefix counter's growth per prefix operation.
func (p *phase) delta(name string, ops int) float64 {
	return (p.counters[1][name] - p.counters[0][name]) / float64(ops)
}

// ratio is a/(a+b), or 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

func (p *phase) throughput() float64 { return float64(p.units) / p.elapsed.Seconds() }

func (p *phase) endToEnd(setupS float64) (map[string]metric, error) {
	p50, err := percentile(p.latencies, 50)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(p.latencies, 90)
	if err != nil {
		return nil, err
	}
	simP90, err := percentile(p.simLatency, 90)
	if err != nil {
		return nil, fmt.Errorf("sim latency: %w", err)
	}
	if p.simTime == 0 || p.units == 0 {
		return nil, errors.New("no work completed")
	}
	fmt.Printf("samples: latency n=%d, sim latency n=%d, throughput over %.2f s\n", p50.N, simP90.N, p.elapsed.Seconds())
	vals := map[string]float64{
		"setup_s":                 setupS,
		"throughput_per_s":        p.throughput(),
		"latency_p50_ms":          p50.Value,
		"latency_p90_ms":          p90.Value,
		"heap_mb":                 p.peakHeap / (1 << 20),
		"sim_latency_p90_mcyc":    simP90.Value / 1e6,
		"sim_throughput_per_mcyc": float64(p.simUnits) / (p.simTime / 1e6),
	}
	return withUnits(endToEnd, vals), nil
}

// withUnits pairs each listed metric with its value (0 when absent).
func withUnits(list []struct{ name, unit string }, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(list))
	for _, m := range list {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}

// perLayerMetrics combines the untraced phase's counts with the traced
// replay's spans and probe counts.
func perLayerMetrics(w bench, untraced *phase, rep replay, ls []layerTime) map[string]metric {
	vals := map[string]float64{}
	n := w.prefix()
	for k, v := range untraced.layer {
		vals[k] = v / float64(n)
	}
	for _, k := range []string{"dma.requests", "xlate.requests", "guarder.checks", "monitor.calls", "monitor.rejected"} {
		vals[k] = untraced.delta(k, n)
	}
	vals["npu.compile_misses"] = untraced.delta("npu.compile_misses", n)
	vals["npu.compile_hit_ratio"] = ratio(untraced.delta("npu.compile_hits", n), vals["npu.compile_misses"])
	if r := untraced.layer["sched.requests"]; r > 0 {
		vals["sched.batched_share"] = untraced.layer["sched.batched"] / r
	}
	if q, err := percentile(untraced.queueWait, 50); err == nil {
		vals["sched.queue_wait_p50_mcyc"] = q.Value / 1e6
	}
	vals["experiments.pool_hit_ratio"] = ratio(untraced.delta("experiments.pool_hits", n), untraced.delta("experiments.pool_misses", n))
	for k, v := range rep.Probe {
		vals[k] = v
	}
	ops := float64(len(untraced.latencies))
	m0, m1 := &untraced.mem[0], &untraced.mem[1]
	vals["go.alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / ops
	vals["go.gc_cycles"] = float64(m1.NumGC-m0.NumGC) / ops
	vals["go.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / ops
	for _, l := range ls {
		vals[l.Name+"_ms"] = l.TotalMS / float64(l.Calls)
		if execOps := rep.Counts["npu.exec_ops"]; l.Name == "npu.exec" && execOps > 0 {
			vals["npu.exec_ns_per_op"] = l.TotalMS * 1e6 / execOps
		}
	}
	vals["perfbench.trace_overhead_pct"] = (1 - float64(rep.Units)/rep.Seconds/untraced.throughput()) * 100
	return withUnits(perLayer, vals)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "secure-infer, serve or figures")
	seed := fs.Int64("seed", 1, "input seed: the same seed replays the same sequence")
	seconds := fs.Float64("seconds", 25, "length of the measured phase (split between the two phases of a traced run)")
	traceMode := fs.Int("trace", 0, "1 reports per-layer metrics from a traced replay")
	setupOnly := fs.Bool("setup-only", false, "time one set-up and exit (child process for the setup_s repeats)")
	replayOnly := fs.Bool("traced-replay", false, "run one traced phase and exit (child process of --trace 1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown --workload %q", *name)
	}
	if *traceMode != 0 && *traceMode != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	// One P: the benchmark measures host time per simulated request,
	// not how the OS shares a small VM's vCPUs between goroutines.
	runtime.GOMAXPROCS(1)

	switch {
	case *setupOnly:
		own, err := timedSetup(mk(*seed))
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(map[string]float64{"setup_s": own})
	case *replayOnly:
		r, err := tracedReplay(mk(*seed), *seconds)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(r)
	}

	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d %s GOMAXPROCS=%d NumCPU=%d\n",
		*name, *seed, *seconds, *traceMode, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Println("note: the simulated timing model is not validated against hardware, so no accuracy figure is given; sim_ metrics and the digest pin simulated behaviour, not its fidelity")
	// Child processes run first, one at a time, so no two set-ups hold
	// their memory at once, and each starts with a cold compile cache.
	childArgs := []string{"--workload", *name, "--seed", strconv.FormatInt(*seed, 10)}
	phaseSeconds, window := *seconds, heapWindow
	var setups []float64
	var rep replay
	if *traceMode == 0 {
		for len(setups) < setupRuns-1 {
			var res map[string]float64
			if err := runChild(&res, append(childArgs, "--setup-only")...); err != nil {
				return err
			}
			setups = append(setups, res["setup_s"])
		}
	} else {
		// The traced replay and the untraced phase (counts, overhead
		// baseline) share the run's time; heap_mb is not reported.
		phaseSeconds, window = *seconds/2, 0
		secs := strconv.FormatFloat(phaseSeconds, 'g', -1, 64)
		if err := runChild(&rep, append(childArgs, "--traced-replay", "--seconds", secs)...); err != nil {
			return err
		}
	}
	w := mk(*seed)
	own, err := timedSetup(w)
	if err != nil {
		return err
	}
	setups = append(setups, own)

	untraced := runPhase(w, phaseSeconds, nil, window)
	report(untraced, w.prefix())
	correct := untraced.failed == 0
	attempted, failed := untraced.ops, untraced.failed
	var out map[string]metric
	if *traceMode == 0 {
		fmt.Printf("setup_s samples: %s\n", fmtFloats(setups))
		if out, err = untraced.endToEnd(median(setups)); err != nil {
			return err
		}
	} else {
		attempted += rep.Ops
		failed += rep.Failed
		correct = correct && rep.Failed == 0
		fmt.Printf("traced replay: %d ops in %.2f s, %d failed\n", rep.Ops, rep.Seconds, rep.Failed)
		for _, v := range rep.Violations {
			fmt.Println("FAIL (traced):", v)
		}
		if d := fmt.Sprintf("%x", untraced.digest.Sum(nil)); d != rep.Digest {
			correct = false
			fmt.Printf("FAIL: traced replay digest %s differs from untraced %s\n", rep.Digest, d)
		}
		ls := layers(rep.Spans)
		printLayers(ls)
		path, err := writeSpans(spanDir, fmt.Sprintf("%s-seed%d.json", *name, *seed), rep.Spans, ls)
		if err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(rep.Spans), path)
		out = perLayerMetrics(w, untraced, rep, ls)
	}
	printMetrics(out)
	return json.NewEncoder(os.Stdout).Encode(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, out})
}

// timedSetup runs w's set-up, ending it with a forced GC as setup_s
// defines, and returns its wall time in seconds.
func timedSetup(w bench) (float64, error) {
	t0 := time.Now()
	if err := w.setup(); err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	return time.Since(t0).Seconds(), nil
}

// replay is what a traced replay reports to its parent.
type replay struct {
	Ops, Failed int
	Violations  []string
	Units       int
	Seconds     float64
	Digest      string
	Spans       []span
	Counts      map[string]float64
	Probe       map[string]float64
}

// tracedReplay sets w up and replays its sequence with spans recorded,
// then reads any probe counts outside the timed phase.
func tracedReplay(w bench, seconds float64) (replay, error) {
	if _, err := timedSetup(w); err != nil {
		return replay{}, err
	}
	tr := newTracer()
	p := runPhase(w, seconds, tr, 0)
	r := replay{
		Ops: p.ops, Failed: p.failed, Violations: p.violations, Units: p.units,
		Seconds: p.elapsed.Seconds(), Digest: fmt.Sprintf("%x", p.digest.Sum(nil)),
		Spans: tr.spans, Counts: tr.counts,
	}
	if pr, ok := w.(prober); ok {
		var err error
		if r.Probe, err = pr.probe(); err != nil {
			return replay{}, fmt.Errorf("probe: %w", err)
		}
	}
	return r, nil
}

// runChild runs the benchmark again in a fresh process with args, waits
// for it, and decodes the JSON it prints into v.
func runChild(v any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("child %v output: %w", args, err)
	}
	return nil
}

func report(p *phase, prefix int) {
	fmt.Printf("measured phase: %d ops in %.2f s; %d attempted with the heap window, %d failed\n",
		len(p.latencies), p.elapsed.Seconds(), p.ops, p.failed)
	for _, v := range p.violations {
		fmt.Println("FAIL:", v)
	}
	keys := make([]string, 0, len(p.traffic))
	for k := range p.traffic {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", k, 100*float64(p.traffic[k])/float64(p.requests)))
	}
	fmt.Printf("traffic (shares of %d): %s\n", p.requests, strings.Join(parts, ", "))
	hits := p.counters[1]["npu.compile_hits"] - p.counters[0]["npu.compile_hits"]
	misses := p.counters[1]["npu.compile_misses"] - p.counters[0]["npu.compile_misses"]
	fmt.Printf("compile-cache hits: %.1f%% of %.0f lookups (first %d ops)\n", 100*ratio(hits, misses), hits+misses, prefix)
	fmt.Printf("digest of simulated outputs (first %d ops): sha256:%x\n", prefix, p.digest.Sum(nil))
}

func printLayers(ls []layerTime) {
	fmt.Printf("%-28s %8s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, l := range ls {
		fmt.Printf("%-28s %8d %12.3f %12.3f\n", l.Name, l.Calls, l.TotalMS, l.SelfMS)
	}
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-30s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}
