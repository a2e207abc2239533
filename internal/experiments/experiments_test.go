package experiments

import (
	"strings"
	"testing"

	"repro/internal/hwcost"
	"repro/internal/npu"
	"repro/internal/workload"
)

// fastModels is a reduced model set for the heavier harnesses so the
// unit-test suite stays quick; the bench harness runs all six.
func fastModels(t *testing.T) []workload.Workload {
	t.Helper()
	var out []workload.Workload
	for _, name := range []string{"alexnet", "yololite"} {
		w, err := workload.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}

func TestNewSoCBootsSecure(t *testing.T) {
	soc, err := NewSoC(npu.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !soc.Machine.Secured() {
		t.Fatal("SoC not secure-booted")
	}
	if len(soc.NPU.Cores()) != 10 {
		t.Fatalf("cores = %d", len(soc.NPU.Cores()))
	}
}

func TestFig1UtilizationUnderHalf(t *testing.T) {
	res, err := Fig1(fastModels(t), npu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Utilization <= 0 || r.Utilization >= 1 {
			t.Fatalf("%s utilization = %.2f out of (0,1)", r.Model, r.Utilization)
		}
	}
	// The paper's claim: most workloads use < 50% of the compute.
	// AlexNet (FC-heavy, memory bound) must be far under half.
	for _, r := range res.Rows {
		if r.Model == "alexnet" && r.Utilization > 0.5 {
			t.Fatalf("alexnet utilization %.2f, want < 0.5", r.Utilization)
		}
	}
	if !strings.Contains(res.TableString(), "alexnet") {
		t.Fatal("table rendering broken")
	}
}

func TestFig13Shape(t *testing.T) {
	res, err := Fig13(fastModels(t), npu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	byMech := map[string]map[string]Fig13Row{}
	for _, r := range res.Rows {
		if byMech[r.Model] == nil {
			byMech[r.Model] = map[string]Fig13Row{}
		}
		byMech[r.Model][r.Mechanism] = r
	}
	for model, rows := range byMech {
		// Guarder: zero slowdown vs the unprotected baseline.
		if g := rows["guarder"]; g.Cycles != rows["none"].Cycles {
			t.Errorf("%s: guarder %d cycles vs baseline %d — not zero-cost", model, g.Cycles, rows["none"].Cycles)
		}
		// IOMMU always slower than baseline; fewer entries never faster.
		if rows["iotlb-4"].Cycles <= rows["none"].Cycles {
			t.Errorf("%s: iotlb-4 not slower than baseline", model)
		}
		if rows["iotlb-4"].Cycles < rows["iotlb-32"].Cycles {
			t.Errorf("%s: iotlb-4 faster than iotlb-32", model)
		}
		// The paper's magnitude band: a visible hit (>=2%) for 4
		// entries, bounded (<35%) overall.
		if s := rows["iotlb-4"].Slowdown(); s < 2 || s > 35 {
			t.Errorf("%s: iotlb-4 slowdown %.1f%% outside [2,35]", model, s)
		}
		// Fig 13(b): Guarder needs a small fraction of the IOMMU's
		// translation requests (paper: ~5%; we accept < 25%).
		g := rows["guarder"]
		if g.RequestsVsIOMMU <= 0 || g.RequestsVsIOMMU > 0.25 {
			t.Errorf("%s: guarder/iommu request ratio %.3f outside (0,0.25]", model, g.RequestsVsIOMMU)
		}
	}
	if !strings.Contains(res.TableA(), "guarder") || !strings.Contains(res.TableB(), "vs-iommu") {
		t.Fatal("table rendering broken")
	}
}

func TestFig14Shape(t *testing.T) {
	res, err := Fig14(fastModels(t), npu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	byGran := map[string]map[string]Fig14Row{}
	for _, r := range res.Rows {
		if byGran[r.Model] == nil {
			byGran[r.Model] = map[string]Fig14Row{}
		}
		byGran[r.Model][r.Granularity] = r
	}
	for model, rows := range byGran {
		tile := rows["tile"].Normalized
		layer := rows["layer"].Normalized
		five := rows["5-layers"].Normalized
		if !(tile >= layer && layer >= five && five >= 1.0) {
			t.Errorf("%s: flush ordering broken tile=%.3f layer=%.3f 5l=%.3f", model, tile, layer, five)
		}
		// Tile-granularity flushing is expensive (paper: ~25%).
		if tile < 1.05 {
			t.Errorf("%s: tile flushing only %.1f%% overhead — too cheap", model, (tile-1)*100)
		}
		// Coarse flushing is cheap.
		if five > 1.10 {
			t.Errorf("%s: 5-layer flushing %.1f%% overhead — too expensive", model, (five-1)*100)
		}
	}
	if !strings.Contains(res.TableString(), "flush-granularity") {
		t.Fatal("table rendering broken")
	}
}

func TestFig16Shape(t *testing.T) {
	res, err := Fig16(npu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]map[int]Fig16Row{}
	for _, r := range res.Rows {
		if byKey[r.Method] == nil {
			byKey[r.Method] = map[int]Fig16Row{}
		}
		byKey[r.Method][r.Lines] = r
	}
	for _, lines := range fig16Sizes {
		sw := byKey["software-noc"][lines]
		un := byKey["unauthorized-noc"][lines]
		ph := byKey["peephole-noc"][lines]
		// Peephole costs nothing over the unauthorized NoC.
		if ph.Latency != un.Latency {
			t.Errorf("lines=%d: peephole latency %d != unauthorized %d", lines, ph.Latency, un.Latency)
		}
		// Direct NoC beats shared memory everywhere.
		if un.Latency >= sw.Latency {
			t.Errorf("lines=%d: NoC (%d) not faster than software NoC (%d)", lines, un.Latency, sw.Latency)
		}
	}
	// At large transactions the paper reports roughly 3x bandwidth.
	big := fig16Sizes[len(fig16Sizes)-1]
	ratio := byKey["peephole-noc"][big].BandwidthBPC / byKey["software-noc"][big].BandwidthBPC
	if ratio < 2.0 {
		t.Errorf("large-transfer bandwidth ratio %.2f, want >= 2x", ratio)
	}
	if !strings.Contains(res.TableString(), "software-noc") {
		t.Fatal("table rendering broken")
	}
}

func TestFig17Shape(t *testing.T) {
	res, err := Fig17(fastModels(t), npu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	byMethod := map[string]map[string]Fig17Row{}
	for _, r := range res.Rows {
		if byMethod[r.Model] == nil {
			byMethod[r.Model] = map[string]Fig17Row{}
		}
		byMethod[r.Model][r.Method] = r
	}
	for model, rows := range byMethod {
		// Peephole == unauthorized (zero auth cost).
		if rows["peephole-noc"].Cycles != rows["unauthorized-noc"].Cycles {
			t.Errorf("%s: peephole %d != unauthorized %d", model,
				rows["peephole-noc"].Cycles, rows["unauthorized-noc"].Cycles)
		}
		// Software NoC is slower end-to-end.
		if rows["software-noc"].Normalized <= 1.0 {
			t.Errorf("%s: software NoC not slower (%.3f)", model, rows["software-noc"].Normalized)
		}
	}
	if !strings.Contains(res.TableString(), "peephole-noc") {
		t.Fatal("table rendering broken")
	}
}

func TestFig18Shape(t *testing.T) {
	res := Fig18(hwcost.DefaultParams())
	rows := map[string]Fig18Row{}
	for _, r := range res.Rows {
		rows[r.Config] = r
	}
	if r := rows["s_spad"]; r.ExtraRAMPct < 0.3 || r.ExtraRAMPct > 1.5 {
		t.Errorf("s_spad RAM %.2f%%, want ~1%%", r.ExtraRAMPct)
	}
	if r := rows["s_noc"]; r.ExtraLUTPct > 5 || r.ExtraFFPct > 5 {
		t.Errorf("full sNPU logic overhead too big: %+v", r)
	}
	if rows["trustzone_iommu"].ExtraLUTPct <= rows["s_noc"].ExtraLUTPct {
		t.Error("IOMMU LUTs not above sNPU total")
	}
	if !strings.Contains(res.TableString(), "s_spad") {
		t.Fatal("table rendering broken")
	}
}

func TestTCBSmall(t *testing.T) {
	res, err := TCB()
	if err != nil {
		t.Fatal(err)
	}
	trusted, untrusted := res.Totals()
	if trusted == 0 || untrusted == 0 {
		t.Fatalf("totals: trusted=%d untrusted=%d", trusted, untrusted)
	}
	// The paper's point: the monitor TCB is a small fraction of the
	// NPU software stack.
	if trusted >= untrusted/2 {
		t.Errorf("TCB %d LoC not small vs untrusted %d LoC", trusted, untrusted)
	}
	if !strings.Contains(res.TableString(), "TOTAL-TCB") {
		t.Fatal("table rendering broken")
	}
}

func TestTableRendering(t *testing.T) {
	s := Table([]string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Fatal("separator missing")
	}
}
