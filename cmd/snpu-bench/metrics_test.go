package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestServeMetricsDir runs the serve experiment (seed 1) under
// -metrics-dir at -j 1 and -j 2. The exports must be byte-identical,
// must report the scheduler (its counters live in each SoC's sim.Stats,
// so the dump sees them without an observer attached), and must not
// carry the retired counter names.
func TestServeMetricsDir(t *testing.T) {
	var spec expSpec
	for _, s := range suiteSpecs() {
		if s.name == "serve" {
			spec = s
		}
	}
	export := func(jobs int) (prom, js []byte) {
		t.Helper()
		experiments.SetWorkers(jobs)
		defer experiments.SetWorkers(0)
		dir := t.TempDir()
		err := collectExperimentMetrics(dir, spec.name, func() error {
			_, err := spec.run(options{exp: spec.name, seed: 1})
			return err
		})
		if err != nil {
			t.Fatalf("serve (j=%d): %v", jobs, err)
		}
		read := func(ext string) []byte {
			b, err := os.ReadFile(filepath.Join(dir, spec.name+ext))
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		return read(".prom"), read(".json")
	}
	prom1, json1 := export(1)
	prom2, json2 := export(2)
	if !bytes.Equal(prom1, prom2) {
		t.Fatalf("serve.prom differs between -j 1 and -j 2:\n%s", firstDiff(prom1, prom2))
	}
	if !bytes.Equal(json1, json2) {
		t.Fatalf("serve.json differs between -j 1 and -j 2:\n%s", firstDiff(json1, json2))
	}
	if !regexp.MustCompile(`(?m)^sched_dispatch_count [1-9][0-9]*$`).Match(prom1) {
		t.Fatalf("serve.prom reports no scheduler dispatches:\n%s", prom1)
	}
	for _, gone := range []string{"monitor.call.count", "monitor.abort.count", "monitor.reject.count",
		"dma.retry.count", "profiler.sample.count"} {
		if bytes.Contains(json1, []byte(`"`+gone+`"`)) || bytes.Contains(prom1, []byte(strings.ReplaceAll(gone, ".", "_"))) {
			t.Fatalf("export still carries the retired counter %s", gone)
		}
	}
}
