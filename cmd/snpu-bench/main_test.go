package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/npu"
	"repro/internal/workload"
)

// The byte-level half of the parallel-determinism contract: the whole
// report — every experiment, including the seeded chaos run whose
// fault plans are non-empty — must be byte-identical between the
// sequential runner and a 4-wide pool. CI runs this under -race, so a
// violation surfaces either as a diff here or as a data race there.

func testModels(t *testing.T) []workload.Workload {
	t.Helper()
	if !testing.Short() {
		return workload.All()
	}
	var out []workload.Workload
	for _, n := range []string{"alexnet", "yololite"} {
		w, err := workload.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}

func renderSuite(t *testing.T, opts options, jobs int) []byte {
	t.Helper()
	experiments.SetWorkers(jobs)
	defer experiments.SetWorkers(0)
	var buf bytes.Buffer
	if _, err := runSuite(&buf, opts); err != nil {
		t.Fatalf("runSuite (j=%d): %v", jobs, err)
	}
	return buf.Bytes()
}

func TestDifferentialFullSuite(t *testing.T) {
	opts := options{exp: "all", models: testModels(t), seed: 1}
	seq := renderSuite(t, opts, 1)
	par := renderSuite(t, opts, 4)
	if !bytes.Equal(seq, par) {
		t.Fatalf("full suite differs between -j 1 and -j 4 (seq %d bytes, par %d bytes):\n%s",
			len(seq), len(par), firstDiff(seq, par))
	}
}

// A full pass derives Table I from its own Fig. 14 and Fig. 15 results:
// table1 runs no cell there, and prints the bytes -exp table1 prints
// when it runs the cells itself. A pass whose Fig. 14 lacks Table I's
// model runs the cells too.
func TestFullSuiteDerivesTable1(t *testing.T) {
	experiments.SetWorkers(2)
	defer experiments.SetWorkers(0)
	var fig15Cells int64 // in the full pass
	run := func(exp string) (string, BenchExperiment) {
		t.Helper()
		var buf bytes.Buffer
		measured, err := runSuite(&buf, options{exp: exp, models: testModels(t), seed: 1})
		if err != nil {
			t.Fatalf("runSuite(%s): %v", exp, err)
		}
		_, section, ok := strings.Cut(buf.String(), "==== Table I ")
		if !ok {
			t.Fatalf("-exp %s printed no Table I section", exp)
		}
		section, _, _ = strings.Cut(section, "\n==== ")
		for _, m := range measured {
			if m.Name == "fig15" {
				fig15Cells = m.Cells
			}
		}
		for _, m := range measured {
			if m.Name == "table1" {
				return strings.TrimRight(section, "\n"), m
			}
		}
		t.Fatalf("-exp %s measured no table1", exp)
		return "", BenchExperiment{}
	}
	all, inAll := run("all")
	alone, onItsOwn := run("table1")
	if all != alone {
		t.Fatalf("Table I differs between the full pass and -exp table1:\n%s", firstDiff([]byte(all), []byte(alone)))
	}
	if inAll.Cells != 0 || onItsOwn.Cells == 0 {
		t.Fatalf("table1 ran %d cells in the full pass and %d on its own, want 0 and more", inAll.Cells, onItsOwn.Cells)
	}
	// Fig. 15 reads the solo cycles of the models Fig. 1 ran and runs
	// the rest solo, besides its 27 pair cells.
	solos := int64(6)
	for _, w := range testModels(t) {
		for _, g := range experiments.Fig15Groups() {
			if w.Name == g.Trusted || w.Name == g.Untrusted {
				solos--
			}
		}
	}
	if want := 27 + solos; fig15Cells != want {
		t.Fatalf("fig15 ran %d cells in the full pass, want %d", fig15Cells, want)
	}

	yolo := &experiments.Result[experiments.Fig14Row]{Rows: []experiments.Fig14Row{{Model: "yololite"}}}
	before := experiments.CellsRun()
	if _, err := (&suiteResults{fig14: yolo, fig15: &experiments.Result[experiments.Fig15Row]{}}).table1(npu.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if experiments.CellsRun() == before {
		t.Fatal("Table I derived from a Fig. 14 without its model")
	}
}

// TestDifferentialChaosSeeded re-checks the contract on the chaos
// experiment alone with a different fixed seed, so the fault-injection
// path (non-empty plan) is exercised explicitly even in -short runs.
func TestDifferentialChaosSeeded(t *testing.T) {
	opts := options{exp: "chaos", models: testModels(t), seed: 7}
	seq := renderSuite(t, opts, 1)
	par := renderSuite(t, opts, 4)
	if !bytes.Equal(seq, par) {
		t.Fatalf("chaos(seed=7) differs between -j 1 and -j 4:\n%s", firstDiff(seq, par))
	}
	if !bytes.Contains(seq, []byte("seed 7")) {
		t.Fatal("chaos output does not mention its seed")
	}
}

// TestDifferentialResilienceSweep re-checks the contract on the
// resilience experiment alone with a different fixed seed: four cells,
// each with an armed transient-fault plan, retries, and shedding, must
// render byte-identically at any pool width.
func TestDifferentialResilienceSweep(t *testing.T) {
	opts := options{exp: "resilience", seed: 5}
	seq := renderSuite(t, opts, 1)
	par := renderSuite(t, opts, 4)
	if !bytes.Equal(seq, par) {
		t.Fatalf("resilience(seed=5) differs between -j 1 and -j 4:\n%s", firstDiff(seq, par))
	}
	if !bytes.Contains(seq, []byte("seed 5")) {
		t.Fatal("resilience output does not mention its seed")
	}
}

// TestDifferentialDecodeSweep re-checks the contract on the decode
// experiment alone: continuous batching, KV claims, and per-token
// timing must render byte-identically at any pool width.
func TestDifferentialDecodeSweep(t *testing.T) {
	opts := options{exp: "decode", seed: 3}
	seq := renderSuite(t, opts, 1)
	par := renderSuite(t, opts, 4)
	if !bytes.Equal(seq, par) {
		t.Fatalf("decode(seed=3) differs between -j 1 and -j 4:\n%s", firstDiff(seq, par))
	}
	if !bytes.Contains(seq, []byte("seed 3")) {
		t.Fatal("decode output does not mention its seed")
	}
	for _, col := range []string{"tok/s@1GHz", "p99-itl-cyc", "joins"} {
		if !bytes.Contains(seq, []byte(col)) {
			t.Fatalf("decode table missing %q column:\n%s", col, seq)
		}
	}
}

// TestSpeedupGateStatus pins the gate's verdict strings — in
// particular the explicit skip marker a small CI runner must record in
// the BENCH JSON instead of silently passing.
func TestSpeedupGateStatus(t *testing.T) {
	cases := []struct {
		name    string
		gate    float64
		numCPU  int
		seqExps int
		speedup float64
		want    string
	}{
		{"disabled", 0, 16, 3, 2.0, ""},
		{"small-runner", 1.5, 2, 3, 2.0, "skipped: NumCPU<4"},
		{"small-runner-3cpu", 1.5, 3, 3, 2.0, "skipped: NumCPU<4"},
		{"no-reference", 1.5, 16, 0, 2.0, "skipped: no sequential reference pass (need -bench-json and -j > 1)"},
		{"fail", 1.5, 16, 3, 1.2, "fail: speedup 1.20 below gate 1.50"},
		{"pass", 1.5, 16, 3, 2.0, "pass: speedup 2.00 meets gate 1.50"},
	}
	for _, c := range cases {
		if got := speedupGateStatus(c.gate, c.numCPU, c.seqExps, c.speedup); got != c.want {
			t.Fatalf("%s: speedupGateStatus = %q, want %q", c.name, got, c.want)
		}
	}
	// The small-runner skip outranks every other condition: a 2-CPU box
	// with a failing speedup still records the skip, never "fail".
	if got := speedupGateStatus(1.5, 2, 3, 0.5); got != "skipped: NumCPU<4" {
		t.Fatalf("skip precedence violated: %q", got)
	}
}

// TestBenchSnapshotRoundTrip covers the -bench-json emitter: a
// snapshot survives write/read and the regression comparator flags
// only genuine >2x slowdowns.
func TestBenchSnapshotRoundTrip(t *testing.T) {
	measured := []BenchExperiment{
		{Name: "fig13", WallNS: 2e9, Cells: 36, CellsPerSec: 18},
		{Name: "fig16", WallNS: 1e6, Cells: 6},
	}
	seq := []BenchExperiment{
		{Name: "fig13", WallNS: 4e9 - 1e6, Cells: 36},
		{Name: "fig16", WallNS: 1e6, Cells: 6},
	}
	snap := newSnapshot(4, measured, seq)
	if snap.TotalWallNS != 2e9+1e6 {
		t.Fatalf("TotalWallNS = %d", snap.TotalWallNS)
	}
	if snap.Speedup < 1.9 || snap.Speedup > 2.1 {
		t.Fatalf("Speedup = %v, want ~2", snap.Speedup)
	}
	if snap.GoMaxProcs <= 0 || snap.Workers <= 0 {
		t.Fatalf("snapshot missing scheduler metadata: gomaxprocs=%d workers=%d",
			snap.GoMaxProcs, snap.Workers)
	}
	if len(snap.SeqExperiments) != 2 {
		t.Fatalf("SeqExperiments = %d entries, want 2", len(snap.SeqExperiments))
	}
	snap.SpeedupGate = "skipped: NumCPU<4"
	snap.Decode = &DecodeSummary{Seed: 1, MaxBatch: 4, TokensPerSec: 3414, P99ITLCycles: 66117, Tokens: 45}
	path := t.TempDir() + "/BENCH_test.json"
	if err := writeSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	back, err := readSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Jobs != 4 || len(back.Experiments) != 2 {
		t.Fatalf("round-trip lost data: %+v", back)
	}
	if back.SpeedupGate != "skipped: NumCPU<4" {
		t.Fatalf("round-trip lost the gate marker: %q", back.SpeedupGate)
	}
	if back.Decode == nil || back.Decode.MaxBatch != 4 || back.Decode.P99ITLCycles != 66117 {
		t.Fatalf("round-trip lost the decode summary: %+v", back.Decode)
	}

	// 3x regression on fig13 must trip; fig16 is under the noise floor
	// and must not, even at 100x.
	slow := []BenchExperiment{
		{Name: "fig13", WallNS: 6e9},
		{Name: "fig16", WallNS: 1e8},
	}
	regs := compareSnapshots(back, slow)
	if len(regs) != 1 || !strings.Contains(regs[0], "fig13") {
		t.Fatalf("regressions = %v, want exactly fig13", regs)
	}
	if regs := compareSnapshots(back, measured); len(regs) != 0 {
		t.Fatalf("same timings flagged as regression: %v", regs)
	}
}

// TestNewSnapshotNoSeqPass pins the -j 1 default: with no sequential
// reference pass, speedup is emitted as the neutral 1 (the field is
// always present in the JSON), and SeqExperiments stays empty.
func TestNewSnapshotNoSeqPass(t *testing.T) {
	snap := newSnapshot(1, []BenchExperiment{{Name: "fig16", WallNS: 1e6, Cells: 6}}, nil)
	if snap.Speedup != 1 {
		t.Fatalf("Speedup = %v, want 1 when no reference pass ran", snap.Speedup)
	}
	if snap.SeqTotalWallNS != 0 || len(snap.SeqExperiments) != 0 {
		t.Fatalf("unexpected sequential data: %+v", snap)
	}
}

// TestAllocRegressionGate covers the fig1 allocs/cell gate: it prefers
// the sequential pass, trips only past the 10% headroom, and skips
// silently against pre-speedup baselines that lack per-cell data.
func TestAllocRegressionGate(t *testing.T) {
	baseline := BenchSnapshot{SeqExperiments: []BenchExperiment{
		{Name: "fig1", Cells: 6, AllocsPerCell: 1000},
	}}
	ok := BenchSnapshot{
		// A noisy parallel pass must not shadow the clean sequential one.
		Experiments:    []BenchExperiment{{Name: "fig1", Cells: 6, AllocsPerCell: 5000}},
		SeqExperiments: []BenchExperiment{{Name: "fig1", Cells: 6, AllocsPerCell: 1050}},
	}
	if msg := allocRegression(baseline, ok); msg != "" {
		t.Fatalf("5%% growth tripped the gate: %s", msg)
	}
	bad := BenchSnapshot{SeqExperiments: []BenchExperiment{
		{Name: "fig1", Cells: 6, AllocsPerCell: 1200},
	}}
	if msg := allocRegression(baseline, bad); !strings.Contains(msg, "fig1") {
		t.Fatalf("20%% growth passed the gate: %q", msg)
	}
	if msg := allocRegression(BenchSnapshot{}, bad); msg != "" {
		t.Fatalf("gate ran against a baseline without per-cell data: %s", msg)
	}
	if msg := allocRegression(baseline, BenchSnapshot{}); !strings.Contains(msg, "no allocs/cell") {
		t.Fatalf("missing measurement not reported: %q", msg)
	}
}

// TestComparisonTable sanity-checks the CI artifact renderer: one row
// per measured experiment, with ratios against matching baseline rows
// and dashes where the baseline has no counterpart.
func TestComparisonTable(t *testing.T) {
	baseline := BenchSnapshot{
		Date:        "2026-01-01",
		Experiments: []BenchExperiment{{Name: "fig13", WallNS: 2e9, AllocsPerCell: 10}},
	}
	snap := BenchSnapshot{
		Date:    "2026-02-01",
		Speedup: 1.7,
		Experiments: []BenchExperiment{
			{Name: "fig13", WallNS: 1e9, AllocsPerCell: 9},
			{Name: "fig16", WallNS: 1e6},
		},
	}
	table := comparisonTable(baseline, snap)
	for _, want := range []string{"| fig13 |", "0.50", "| fig16 |", "| - |", "speedup: 1.70"} {
		if !strings.Contains(table, want) {
			t.Fatalf("comparison table missing %q:\n%s", want, table)
		}
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(a, b []byte) string {
	al := strings.Split(string(a), "\n")
	bl := strings.Split(string(b), "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\nseq: %s\npar: %s", i+1, al[i], bl[i])
		}
	}
	return "outputs diverge in length only"
}
