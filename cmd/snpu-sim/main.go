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
//
// -model accepts either a built-in name or a path to a graph-IR JSON
// document (anything ending in .json): the graph is parsed, validated,
// and lowered to the same GEMM workload form the built-ins use, then
// runs through any mode — baseline, secure, traced. Invalid IR fails
// before anything executes.
//
// -seed (default 1) makes every run reproducible: it derives the
// secure-task sealing key and is echoed into fault plans, so the same
// seed and flags always produce identical output. -faults installs a
// fault plan (see internal/fault; generate one with fault.Generate or
// write the JSON by hand); a secure run with faults goes through the
// Monitor's recovery path and reports what it had to do.
package main

import (
	"flag"
	"fmt"
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

	cfg := snpu.DefaultConfig()
	if *baseline {
		cfg = snpu.BaselineConfig()
	}
	sys, err := snpu.New(cfg)
	if err != nil {
		fatal(err)
	}

	// A .json -model is a graph-IR document: compile it up front so any
	// IR error surfaces before the SoC does anything.
	var graphWL workload.Workload
	haveGraph := strings.HasSuffix(*model, ".json")
	if haveGraph {
		graphWL, err = graph.LoadFile(*model)
		if err != nil {
			fatal(err)
		}
	}
	if *metricsOut != "" {
		// Spans ride along only when a -trace timeline was requested;
		// the plain metrics path stays within the <2% overhead budget.
		sys.EnableObservability(obs.Config{Spans: *traceOut != ""})
	}

	var plan fault.Plan
	if *faultsFile != "" {
		if *baseline || *traceOut != "" {
			fatal(fmt.Errorf("-faults supports the protected run only (no -baseline, -trace)"))
		}
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

	var res snpu.InferenceResult
	if *traceOut != "" {
		if *secure || *baseline {
			fatal(fmt.Errorf("-trace only supports the default non-secure protected run"))
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if haveGraph {
			res, err = sys.RunWorkloadTraced(graphWL, f)
		} else {
			res, err = sys.RunModelTraced(*model, f)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s\n", *traceOut)
	} else if *secure {
		if *baseline {
			fatal(fmt.Errorf("the baseline NPU has no monitor; drop -baseline"))
		}
		key := snpu.ChaosKey(*seed)
		if err := sys.ProvisionKey("cli-owner", key); err != nil {
			fatal(err)
		}
		sealed, err := snpu.SealModel(key, []byte("model weights for "+*model))
		if err != nil {
			fatal(err)
		}
		var handle *snpu.SecureTaskHandle
		if haveGraph {
			handle, err = sys.SubmitSecureWorkload(graphWL, "cli-owner", sealed)
		} else {
			handle, err = sys.SubmitSecure(*model, "cli-owner", sealed)
		}
		if err != nil {
			fatal(err)
		}
		if *faultsFile != "" {
			rep, err := sys.RunSecureResilient(handle, snpu.DefaultMaxRestarts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "snpu-sim: %v (faults fired: %d, restarts: %d, remaps: %d)\n",
					err, rep.Faults, rep.Restarts, rep.Remaps)
				os.Exit(1)
			}
			res = rep.InferenceResult
			printResult(res, "secure (via NPU Monitor, resilient)")
			fmt.Printf("fault plan:   %d scheduled, %d fired, %d restarts, %d remaps\n",
				len(plan.Events), rep.Faults, rep.Restarts, rep.Remaps)
			if *counters {
				fmt.Println("\nhardware counters:")
				fmt.Print(sys.Stats().String())
			}
			dumpMetrics(sys, *metricsOut)
			return
		}
		res, err = sys.RunSecure(handle)
		if err != nil {
			fatal(err)
		}
	} else {
		if haveGraph {
			res, err = sys.RunWorkload(graphWL)
		} else {
			res, err = sys.RunModel(*model)
		}
		if err != nil {
			fatal(err)
		}
	}

	mode := "non-secure"
	if *secure {
		mode = "secure (via NPU Monitor)"
	}
	printResult(res, mode)
	if *counters {
		fmt.Println("\nhardware counters:")
		fmt.Print(sys.Stats().String())
	}
	dumpMetrics(sys, *metricsOut)
}

// dumpMetrics writes the run's metrics registry as Prometheus text to
// path and as JSON next to it (extension swapped for .json). A no-op
// when -metrics was not given.
func dumpMetrics(sys *snpu.System, path string) {
	o := sys.Observer()
	if o == nil || path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := o.Registry().WritePrometheus(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	jsonPath := strings.TrimSuffix(path, filepath.Ext(path)) + ".json"
	jf, err := os.Create(jsonPath)
	if err != nil {
		fatal(err)
	}
	if err := o.Registry().WriteJSON(jf); err != nil {
		jf.Close()
		fatal(err)
	}
	if err := jf.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("metrics written to %s and %s\n", path, jsonPath)
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
