// Command snpu-bench regenerates the paper's evaluation tables and
// figures on the simulated SoC and prints them as text tables.
//
// Usage:
//
//	snpu-bench                 # run every experiment
//	snpu-bench -exp fig13      # one experiment: fig1, table1, fig13,
//	                           # fig14, fig15, fig16, fig17, fig18, tcb
//	snpu-bench -models alexnet,yololite
//	snpu-bench -markdown       # wrap tables for EXPERIMENTS.md
//	snpu-bench -exp chaos -seed 7
//	snpu-bench -j 4            # run experiment cells on 4 workers
//	snpu-bench -bench-json BENCH_2026-08-06.json
//	snpu-bench -bench-against BENCH_2026-08-06.json
//
// -seed (default 1) drives everything randomized: the chaos
// experiment's fault plans and its sealing key. The same seed always
// reproduces byte-identical tables.
//
// -j sets the worker-pool width for experiment cells (default
// GOMAXPROCS). Every cell boots its own SoC, so any -j produces
// byte-identical tables; see DESIGN.md on the parallel-determinism
// contract.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"

	snpu "repro"
	"repro/internal/experiments"
	"repro/internal/hwcost"
	"repro/internal/npu"
	"repro/internal/workload"
)

// options carries the per-run configuration into the experiment specs.
type options struct {
	exp      string
	models   []workload.Workload
	markdown bool
	seed     int64
	// metricsDir, when set, exports per-experiment metrics files
	// (<exp>.prom + <exp>.json) aggregated over the experiment's SoCs.
	metricsDir string
	// ran holds results one suite pass hands to a later experiment
	// (runSuite sets it; nil when a spec runs on its own).
	ran *suiteResults
}

// suiteResults carries a pass's Fig. 14 and Fig. 15 results to Table I,
// which derives its table from them instead of re-running their cells.
type suiteResults struct {
	fig14 *experiments.Result[experiments.Fig14Row]
	fig15 *experiments.Result[experiments.Fig15Row]
}

// table1 derives Table I from the pass's Fig. 14 and Fig. 15 results
// when it ran both and Fig. 14 covered Table I's model, and otherwise
// runs the cells Table I needs.
func (r *suiteResults) table1(cfg npu.Config) (*experiments.Result[experiments.Table1Row], error) {
	if r != nil && r.fig14 != nil && r.fig15 != nil &&
		slices.ContainsFunc(r.fig14.Rows, func(row experiments.Fig14Row) bool { return row.Model == experiments.Table1Model }) {
		return experiments.Table1From(r.fig14, r.fig15)
	}
	return experiments.Table1(cfg)
}

// section is one titled output block.
type section struct {
	title, body string
}

// expSpec names one experiment and produces its output sections.
type expSpec struct {
	name string
	run  func(opts options) ([]section, error)
}

// suiteSpecs lists every experiment in the order the report prints
// them. Each spec fans its cells out over the experiments worker pool;
// the spec list itself runs in order so sections render
// deterministically.
func suiteSpecs() []expSpec {
	cfg := npu.DefaultConfig()
	return []expSpec{
		{"fig1", func(o options) ([]section, error) {
			res, err := experiments.Fig1(o.models, cfg)
			if err != nil {
				return nil, err
			}
			return []section{{"Fig. 1 — FLOPS utilization of single inference workloads", res.TableString()}}, nil
		}},
		{"table1", func(o options) ([]section, error) {
			res, err := o.ran.table1(cfg)
			if err != nil {
				return nil, err
			}
			return []section{{"Table I — scratchpad isolation mechanisms", res.TableString()}}, nil
		}},
		{"fig13", func(o options) ([]section, error) {
			res, err := experiments.Fig13(o.models, cfg)
			if err != nil {
				return nil, err
			}
			return []section{
				{"Fig. 13(a) — access control: normalized performance", res.TableA()},
				{"Fig. 13(b) — access control: translation requests", res.TableB()},
			}, nil
		}},
		{"fig14", func(o options) ([]section, error) {
			res, err := experiments.Fig14(o.models, cfg)
			if err != nil {
				return nil, err
			}
			if o.ran != nil {
				o.ran.fig14 = res
			}
			return []section{{"Fig. 14 — flush granularity overhead (time-shared)", res.TableString()}}, nil
		}},
		{"fig15", func(o options) ([]section, error) {
			res, err := experiments.Fig15(cfg)
			if err != nil {
				return nil, err
			}
			if o.ran != nil {
				o.ran.fig15 = res
			}
			return []section{{"Fig. 15 — static partition vs ID-based dynamic scratchpad", res.TableString()}}, nil
		}},
		{"fig16", func(o options) ([]section, error) {
			res, err := experiments.Fig16(cfg)
			if err != nil {
				return nil, err
			}
			return []section{{"Fig. 16 — NoC micro-test", res.TableString()}}, nil
		}},
		{"fig17", func(o options) ([]section, error) {
			res, err := experiments.Fig17(o.models, cfg)
			if err != nil {
				return nil, err
			}
			return []section{{"Fig. 17 — NoC application test (model-parallel, 2x2 cores)", res.TableString()}}, nil
		}},
		{"fig18", func(o options) ([]section, error) {
			res := experiments.Fig18(hwcost.DefaultParams())
			return []section{{"Fig. 18 — hardware resource cost", res.TableString()}}, nil
		}},
		{"tcb", func(o options) ([]section, error) {
			res, err := experiments.TCB()
			if err != nil {
				return nil, err
			}
			return []section{{"TCB size analysis (§VI-F, over this repository)", res.TableString()}}, nil
		}},
		{"ablations", func(o options) ([]section, error) {
			sweeps := []func() (*experiments.AblationResult, error){
				func() (*experiments.AblationResult, error) { return experiments.AblationIOTLBSweep("yololite", cfg) },
				func() (*experiments.AblationResult, error) { return experiments.AblationSpadBudget("alexnet", cfg) },
				func() (*experiments.AblationResult, error) { return experiments.AblationMultiDomain(), nil },
				func() (*experiments.AblationResult, error) { return experiments.AblationL2("alexnet", cfg) },
				func() (*experiments.AblationResult, error) { return experiments.AblationMulticast(cfg) },
				func() (*experiments.AblationResult, error) {
					return experiments.AblationCheckingEnergy("yololite", cfg)
				},
				func() (*experiments.AblationResult, error) { return experiments.AblationBandwidth("alexnet", cfg) },
				func() (*experiments.AblationResult, error) { return experiments.AblationPreemption("yololite", cfg) },
			}
			var out []section
			for _, sweep := range sweeps {
				res, err := sweep()
				if err != nil {
					return nil, err
				}
				out = append(out, section{"Ablation — " + res.Name, res.TableString()})
			}
			return out, nil
		}},
		{"serve", func(o options) ([]section, error) {
			res, err := snpu.ServeBench(o.seed)
			if err != nil {
				return nil, err
			}
			title := fmt.Sprintf("Serve — multi-tenant scheduler load sweep (seed %d; beyond-paper)", o.seed)
			return []section{{title, res.TableString()}}, nil
		}},
		{"decode", func(o options) ([]section, error) {
			res, err := snpu.DecodeBench(o.seed)
			if err != nil {
				return nil, err
			}
			recordDecodeSummary(o.seed, res)
			title := fmt.Sprintf("Decode — autoregressive serving with KV residency + continuous batching (seed %d; beyond-paper)", o.seed)
			return []section{{title, res.TableString()}}, nil
		}},
		{"resilience", func(o options) ([]section, error) {
			res, err := snpu.ResilienceBench(o.seed)
			if err != nil {
				return nil, err
			}
			recordResilienceSummary(o.seed, res)
			title := fmt.Sprintf("Resilience — fault-rate x load sweep with retry/shed policy (seed %d; beyond-paper)", o.seed)
			return []section{{title, res.TableString()}}, nil
		}},
		{"chaos", func(o options) ([]section, error) {
			model := o.models[0].Name
			res, err := snpu.Chaos(model, o.seed)
			if err != nil {
				return nil, err
			}
			title := fmt.Sprintf("Chaos — seeded fault injection + recovery (%s, seed %d; beyond-paper)", model, o.seed)
			return []section{{title, res.TableString()}}, nil
		}},
	}
}

// runSuite executes the selected experiments, writes their sections to
// w in suite order, and returns the per-experiment measurements for the
// bench snapshot in the same order.
func runSuite(w io.Writer, opts options) ([]BenchExperiment, error) {
	var specs []expSpec
	for _, spec := range suiteSpecs() {
		if opts.exp == "all" || opts.exp == spec.name {
			specs = append(specs, spec)
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("unknown experiment %q", opts.exp)
	}
	// Table I derives from the pass's Fig. 14 and Fig. 15 results
	// (suiteResults.table1), so it runs after every other experiment;
	// the sections print once the pass is done.
	order := make([]int, 0, len(specs))
	for i, spec := range specs {
		if spec.name != "table1" {
			order = append(order, i)
		}
	}
	if i := slices.IndexFunc(specs, func(spec expSpec) bool { return spec.name == "table1" }); i >= 0 {
		order = append(order, i)
	}
	opts.ran = &suiteResults{}
	measured := make([]BenchExperiment, len(specs))
	sections := make([][]section, len(specs))
	for _, i := range order {
		spec := specs[i]
		runOne := func() error {
			var err error
			measured[i], sections[i], err = measureExperiment(spec, opts)
			return err
		}
		var err error
		if opts.metricsDir != "" {
			err = collectExperimentMetrics(opts.metricsDir, spec.name, runOne)
		} else {
			err = runOne()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
	}
	for _, ss := range sections {
		for _, s := range ss {
			if opts.markdown {
				fmt.Fprintf(w, "### %s\n\n```\n%s```\n\n", s.title, s.body)
			} else {
				fmt.Fprintf(w, "==== %s ====\n%s\n", s.title, s.body)
			}
		}
	}
	return measured, nil
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, fig1, table1, fig13, fig14, fig15, fig16, fig17, fig18, tcb, ablations, serve, decode, resilience, chaos)")
	modelsFlag := flag.String("models", "", "comma-separated model subset (default: all six)")
	markdown := flag.Bool("markdown", false, "emit fenced code blocks with headings")
	outPath := flag.String("o", "", "write output to this file instead of stdout")
	seed := flag.Int64("seed", 1, "seed for randomized experiments (serve, decode, resilience, chaos); same seed = identical output")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "experiment-cell worker pool width; output is identical for any value")
	benchJSON := flag.String("bench-json", "", "write a perf snapshot (wall-time per experiment, cells/sec, allocs) to this file")
	benchAgainst := flag.String("bench-against", "", "compare wall-times and fig1 allocs/cell against a committed snapshot; exit 1 on regression")
	benchTable := flag.String("bench-table", "", "with -bench-against: write a markdown comparison table to this file")
	gateSpeedup := flag.Float64("gate-speedup", 0, "fail if the measured -j speedup is below this (0 disables; skipped when NumCPU < 4)")
	metricsDir := flag.String("metrics-dir", "", "write per-experiment metrics (Prometheus text + JSON) into this directory")
	metricsOverhead := flag.Bool("metrics-overhead", false, "measure the observability layer's enabled-vs-disabled overhead; exit 1 above 2%")
	flag.Parse()

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}

	models, err := selectModels(*modelsFlag)
	if err != nil {
		fatal(err)
	}
	opts := options{exp: *exp, models: models, markdown: *markdown, seed: *seed}

	var seqMeasured []BenchExperiment
	if *benchJSON != "" && *jobs > 1 {
		// Sequential reference pass: same cells, pool width 1, output
		// discarded (it is byte-identical by the determinism contract).
		// It runs first, on cold pools, so its alloc counts are
		// scheduling-independent — the allocs/cell gate compares these.
		experiments.SetWorkers(1)
		seqMeasured, err = runSuite(io.Discard, opts)
		if err != nil {
			fatal(err)
		}
	}

	if *metricsDir != "" {
		if err := os.MkdirAll(*metricsDir, 0o755); err != nil {
			fatal(err)
		}
		// Only the main pass exports metrics; the sequential reference
		// pass above would overwrite them with identical bytes anyway.
		opts.metricsDir = *metricsDir
	}

	experiments.SetWorkers(*jobs)
	measured, err := runSuite(out, opts)
	if err != nil {
		fatal(err)
	}

	var overheadPct float64
	if *metricsOverhead {
		rd, err := measureMetricsOverhead()
		if err != nil {
			fatal(err)
		}
		overheadPct = rd.pct
		fmt.Fprintf(os.Stderr, "snpu-bench: metrics overhead %.2f%% enabled vs disabled (disabled first %.2f%%, enabled first %.2f%%; limit %.1f%%)\n",
			rd.pct, rd.offFirst, rd.onFirst, metricsOverheadLimitPct)
	}

	snap := newSnapshot(*jobs, measured, seqMeasured)
	if *metricsOverhead {
		snap.MetricsOverheadPct = overheadPct
	}
	// The gate verdict goes into the snapshot itself, so a skipped gate
	// (small runner) is visible in the committed BENCH JSON.
	snap.SpeedupGate = speedupGateStatus(*gateSpeedup, runtime.NumCPU(), len(seqMeasured), snap.Speedup)
	if *benchJSON != "" {
		if err := writeSnapshot(*benchJSON, snap); err != nil {
			fatal(err)
		}
	}
	if *benchAgainst != "" {
		baseline, err := readSnapshot(*benchAgainst)
		if err != nil {
			fatal(err)
		}
		if *benchTable != "" {
			if err := os.WriteFile(*benchTable, []byte(comparisonTable(baseline, snap)), 0o644); err != nil {
				fatal(err)
			}
		}
		regressions := compareSnapshots(baseline, measured)
		if msg := allocRegression(baseline, snap); msg != "" {
			regressions = append(regressions, msg)
		}
		if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "snpu-bench: REGRESSION:", r)
			}
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "snpu-bench: no regressions vs", *benchAgainst)
	}
	if *gateSpeedup > 0 {
		fmt.Fprintf(os.Stderr, "snpu-bench: speedup gate (-j %d): %s\n", *jobs, snap.SpeedupGate)
		if strings.HasPrefix(snap.SpeedupGate, "fail") {
			os.Exit(1)
		}
	}
	if overheadPct > metricsOverheadLimitPct {
		fmt.Fprintf(os.Stderr, "snpu-bench: REGRESSION: metrics overhead %.2f%% exceeds the %.1f%% budget\n",
			overheadPct, metricsOverheadLimitPct)
		os.Exit(1)
	}
}

func selectModels(flagVal string) ([]workload.Workload, error) {
	if flagVal == "" {
		return workload.All(), nil
	}
	var out []workload.Workload
	for _, name := range strings.Split(flagVal, ",") {
		w, err := workload.Lookup(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "snpu-bench:", err)
	os.Exit(1)
}
