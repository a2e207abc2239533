// Multitask: the paper's core use case — a secure and a non-secure
// model sharing one NPU. Compares the TrustZone-NPU strawman (flush
// the scratchpad on every op-kernel switch) against sNPU's ID-based
// isolation (share at the same granularity, flush nothing). Exits 1
// unless the sNPU row pays no flush cycles and every flushing row pays
// some and takes longer than the sNPU row.
//
//	go run ./examples/multitask
package main

import (
	"fmt"
	"log"
	"os"

	snpu "repro"
)

func main() {
	secureModel, publicModel := "alexnet", "yololite"
	fmt.Printf("time-sharing one core: secure %s + public %s\n\n", secureModel, publicModel)

	type row struct {
		name  string
		gran  snpu.FlushGranularity
		flush bool
	}
	rows := []row{
		{"snpu ID-isolation (tile switches, no flush)", snpu.FlushPerTile, false},
		{"flush per tile   (TrustZone-NPU strawman)", snpu.FlushPerTile, true},
		{"flush per layer", snpu.FlushPerLayer, true},
		{"flush per 5 layers", snpu.FlushPer5Layers, true},
	}

	var baseline int64
	failed := false
	for i, r := range rows {
		// Fresh system per run: the simulation clock is system state.
		sys, err := snpu.New(snpu.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.TimeShare(secureModel, publicModel, r.gran, r.flush)
		if err != nil {
			log.Fatal(err)
		}
		makespan := int64(res.Makespan())
		if i == 0 {
			baseline = makespan
		}
		fmt.Printf("%-46s %12d cycles  %5.1f%% overhead  (%d switches, %d flush cycles)\n",
			r.name, makespan, 100*float64(makespan-baseline)/float64(baseline),
			res.Switches, res.FlushCycles)
		// Row 0 is sNPU's and flushes nothing; every other row
		// flushes and takes longer.
		bad := res.FlushCycles != 0
		if i > 0 {
			bad = res.FlushCycles == 0 || makespan <= baseline
		}
		if bad {
			fmt.Fprintf(os.Stderr, "multitask: %q: %d cycles, %d flush cycles\n", r.name, makespan, res.FlushCycles)
			failed = true
		}
	}

	fmt.Println("\nsNPU shares the scratchpad at op-kernel granularity with no")
	fmt.Println("flushing: the per-line ID state makes stale data unreadable, so")
	fmt.Println("fine-grained preemption (good SLA) costs nothing.")
	if failed {
		os.Exit(1)
	}
}
