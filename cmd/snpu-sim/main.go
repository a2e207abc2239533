// Command snpu-sim runs one inference workload on the simulated SoC
// and reports its runtime, utilization, and hardware counters.
//
// Usage:
//
//	snpu-sim -model resnet                     # sNPU-protected run
//	snpu-sim -model bert -baseline             # unprotected baseline
//	snpu-sim -model alexnet -secure            # through the NPU Monitor
//	snpu-sim -model googlenet -counters        # dump stat counters
//	snpu-sim -model yololite -secure -faults plan.json -seed 3
//	snpu-sim -model my-graph.json -secure      # compile a graph-IR file
//	snpu-sim -model alexnet -secure -trace t.json
//
// -model accepts either a built-in name or a path to a graph-IR JSON
// document (anything ending in .json): the graph is parsed, validated,
// and lowered to the same GEMM workload form the built-ins use, then
// runs through any mode. Invalid IR fails before anything executes.
//
// -seed (default 1) makes every run reproducible: it derives the
// secure-task sealing key and is echoed into fault plans, so the same
// seed and flags always produce identical output. -faults installs a
// fault plan (see internal/fault; generate one with fault.Generate or
// write the JSON by hand); a secure run with faults goes through the
// Monitor's recovery path and reports what it had to do. -trace works
// in every mode: it records the observability layer's spans and, after
// the run, writes them as a Chrome-trace timeline.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	snpu "repro"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/workload"
)

func main() {
	model := flag.String("model", "yololite", "workload: googlenet, alexnet, yololite, mobilenet, resnet, bert, vgg16, gpt-decode, dlrm — or a path to a graph-IR .json file")
	baseline := flag.Bool("baseline", false, "run on the unprotected baseline NPU")
	secure := flag.Bool("secure", false, "run as a secure task through the NPU Monitor")
	counters := flag.Bool("counters", false, "dump hardware counters after the run")
	traceOut := flag.String("trace", "", "write a Chrome-trace JSON timeline to this file")
	faultsFile := flag.String("faults", "", "install the fault plan in this JSON file before running")
	metricsOut := flag.String("metrics", "", "write run metrics: Prometheus text to this file, JSON alongside with a .json extension")
	seed := flag.Int64("seed", 1, "deterministic seed for sealing-key derivation; same seed = identical run")
	flag.Parse()

	if *secure && *baseline {
		fatal(fmt.Errorf("the baseline NPU has no monitor; drop -baseline"))
	}
	// Resolve -model once, before the SoC does anything, so an IR
	// error surfaces first.
	w, err := loadWorkload(*model)
	if err != nil {
		fatal(err)
	}
	cfg := snpu.DefaultConfig()
	if *baseline {
		cfg = snpu.BaselineConfig()
	}
	sys, err := snpu.New(cfg)
	if err != nil {
		fatal(err)
	}
	if *metricsOut != "" || *traceOut != "" {
		// Spans ride along only when a -trace timeline was requested;
		// the plain metrics path stays within the <2% overhead budget.
		sys.EnableObservability(obs.Config{Spans: *traceOut != ""})
	}

	var plan fault.Plan
	if *faultsFile != "" {
		f, err := os.Open(*faultsFile)
		if err != nil {
			fatal(err)
		}
		plan, err = fault.ReadPlan(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		sys.InstallFaultPlan(plan)
	}

	mode := "non-secure"
	resilient := *secure && *faultsFile != ""
	var rep snpu.SecureRunReport
	if *secure {
		mode = "secure (via NPU Monitor)"
		if resilient {
			mode = "secure (via NPU Monitor, resilient)"
		}
		rep, err = runSecure(sys, w, *model, *seed, resilient)
	} else {
		rep.InferenceResult, err = sys.RunWorkload(w)
	}
	// The timeline is written even for a failed run: it shows what the
	// monitor did before giving up.
	if *traceOut != "" {
		writeFile(*traceOut, sys.Observer().Trace().ExportChrome)
		fmt.Printf("trace written to %s\n", *traceOut)
	}
	if err != nil {
		if resilient {
			err = fmt.Errorf("%w (faults fired: %d, restarts: %d, remaps: %d)", err, rep.Faults, rep.Restarts, rep.Remaps)
		}
		fatal(err)
	}

	printResult(rep.InferenceResult, mode)
	if resilient {
		fmt.Printf("fault plan:   %d scheduled, %d fired, %d restarts, %d remaps\n",
			len(plan.Events), rep.Faults, rep.Restarts, rep.Remaps)
	}
	if *counters {
		fmt.Println("\nhardware counters:")
		fmt.Print(sys.Stats().String())
	}
	dumpMetrics(sys, *metricsOut)
}

// loadWorkload resolves -model: a graph-IR document (anything ending
// in .json) is parsed, validated and lowered; anything else is a
// built-in model name.
func loadWorkload(model string) (workload.Workload, error) {
	if strings.HasSuffix(model, ".json") {
		return graph.LoadFile(model)
	}
	return workload.Lookup(model)
}

// runSecure seals the model under the seed's key, submits it through
// the NPU Monitor and runs it: with the recovery ladder when resilient,
// fail-closed otherwise.
func runSecure(sys *snpu.System, w workload.Workload, model string, seed int64, resilient bool) (snpu.SecureRunReport, error) {
	key := snpu.ChaosKey(seed)
	if err := sys.ProvisionKey("cli-owner", key); err != nil {
		return snpu.SecureRunReport{}, err
	}
	sealed, err := snpu.SealModel(key, []byte("model weights for "+model))
	if err != nil {
		return snpu.SecureRunReport{}, err
	}
	h, err := sys.SubmitSecureWorkload(w, "cli-owner", sealed)
	if err != nil {
		return snpu.SecureRunReport{}, err
	}
	if resilient {
		return sys.RunSecureResilient(h)
	}
	res, err := sys.RunSecure(h)
	return snpu.SecureRunReport{InferenceResult: res}, err
}

// dumpMetrics writes the run's metrics registry as Prometheus text to
// path and as JSON next to it (extension swapped for .json). A no-op
// when -metrics was not given.
func dumpMetrics(sys *snpu.System, path string) {
	o := sys.Observer()
	if o == nil || path == "" {
		return
	}
	jsonPath := strings.TrimSuffix(path, filepath.Ext(path)) + ".json"
	writeFile(path, o.Registry().WritePrometheus)
	writeFile(jsonPath, o.Registry().WriteJSON)
	fmt.Printf("metrics written to %s and %s\n", path, jsonPath)
}

// writeFile creates path and fills it through write.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := write(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func printResult(res snpu.InferenceResult, mode string) {
	fmt.Printf("model:        %s\n", res.Model)
	fmt.Printf("mode:         %s\n", mode)
	fmt.Printf("cycles:       %d (%.3f ms at 1 GHz)\n", res.Cycles, float64(res.Cycles)/1e6)
	fmt.Printf("MACs:         %d (%.2f GMACs)\n", res.MACs, float64(res.MACs)/1e9)
	fmt.Printf("utilization:  %.1f%% of peak\n", res.Utilization*100)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "snpu-sim:", err)
	os.Exit(1)
}
