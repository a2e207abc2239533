package experiments

import (
	"strings"
	"testing"

	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/spad"
	"repro/internal/workload"
)

func TestFig15Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-model pair runs")
	}
	res, err := Fig15(npu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 3 groups x 4 policies.
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	worst := map[string]map[string]float64{}
	for _, r := range res.Rows {
		if worst[r.Group] == nil {
			worst[r.Group] = map[string]float64{}
		}
		worst[r.Group][r.Policy] = worseOf(r)
		// Sharing never beats running alone with the whole scratchpad.
		if r.Trusted.Normalized < 0.999 || r.Untrusted.Normalized < 0.999 {
			t.Errorf("%s/%s: shared run faster than solo (%v / %v)",
				r.Group, r.Policy, r.Trusted.Normalized, r.Untrusted.Normalized)
		}
	}
	// The dynamic policy never loses to any static split on its own
	// objective, in every group.
	for group, policies := range worst {
		dyn := policies["snpu-dynamic"]
		for name, m := range policies {
			if name == "snpu-dynamic" {
				continue
			}
			if dyn > m+1e-9 {
				t.Errorf("%s: dynamic (%.3f) worse than %s (%.3f)", group, dyn, name, m)
			}
		}
	}
	if !strings.Contains(res.TableString(), "snpu-dynamic") {
		t.Fatal("table rendering broken")
	}
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-model runs")
	}
	res, err := Table1(npu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]Table1Row{}
	for _, r := range res.Rows {
		rows[r.Mechanism] = r
	}
	if len(rows) != 4 {
		t.Fatalf("mechanisms = %d", len(rows))
	}
	// Only sNPU combines both sharing modes with high utilization.
	s := rows["snpu"]
	if !s.Temporal || !s.Spatial || s.Utilization != "high" || s.MeasuredOverheadPct != 0 {
		t.Fatalf("snpu row: %+v", s)
	}
	// Fine flushing is expensive, coarse is cheap, partition loses
	// something to dynamic.
	if rows["flush-fine"].MeasuredOverheadPct < 20 {
		t.Fatalf("fine flush overhead %v too low", rows["flush-fine"].MeasuredOverheadPct)
	}
	if rows["flush-coarse"].MeasuredOverheadPct > 5 {
		t.Fatalf("coarse flush overhead %v too high", rows["flush-coarse"].MeasuredOverheadPct)
	}
	if rows["partition"].MeasuredOverheadPct < 0 {
		t.Fatalf("partition overhead negative: %v", rows["partition"].MeasuredOverheadPct)
	}
	if !strings.Contains(res.TableString(), "snpu") {
		t.Fatal("table rendering broken")
	}
}

// Table1From reads only Table I's model from a Fig. 14 result over any
// model set, and refuses one without it.
func TestTable1FromReadsItsModel(t *testing.T) {
	f15 := &Result[Fig15Row]{}
	tile, coarse := spad.FlushPerTile.String(), spad.FlushPer5Layers.String()
	rows := []Fig14Row{
		{Model: "yololite", Granularity: tile, Normalized: 3},
		{Model: Table1Model, Granularity: tile, Normalized: 1.5},
		{Model: Table1Model, Granularity: coarse, Normalized: 1.25},
		{Model: "yololite", Granularity: coarse, Normalized: 2},
	}
	res, err := Table1From(&Result[Fig14Row]{Rows: rows}, f15)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, r := range res.Rows {
		got[r.Mechanism] = r.MeasuredOverheadPct
	}
	if got["flush-fine"] != 50 || got["flush-coarse"] != 25 {
		t.Fatalf("overheads %v, want flush-fine 50 and flush-coarse 25 from %s's rows", got, Table1Model)
	}
	if _, err := Table1From(&Result[Fig14Row]{Rows: rows[:1]}, f15); err == nil {
		t.Fatalf("derived Table I from a Fig. 14 without %s", Table1Model)
	}
}

// Fig. 1's cycles are Fig. 15's solo runs: a Fig. 15 that reads them
// runs only its pair cells and prints the same rows.
func TestFig15FromFig1(t *testing.T) {
	if testing.Short() {
		t.Skip("full-model pair runs")
	}
	cfg := npu.DefaultConfig()
	groups := Fig15Groups()[:1]
	want, err := fig15(cfg, groups, nil)
	if err != nil {
		t.Fatal(err)
	}
	var models []workload.Workload
	for _, name := range []string{groups[0].Trusted, groups[0].Untrusted} {
		w, err := workload.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, w)
	}
	fig1, err := Fig1(models, cfg)
	if err != nil {
		t.Fatal(err)
	}
	solo := map[string]sim.Cycle{}
	for _, r := range fig1.Rows {
		solo[r.Model] = r.Cycles
	}
	before := CellsRun()
	got, err := fig15(cfg, groups, solo)
	if err != nil {
		t.Fatal(err)
	}
	if ran := CellsRun() - before; ran != int64(len(fig15Splits)) {
		t.Fatalf("ran %d cells, want the %d pair cells", ran, len(fig15Splits))
	}
	if got.TableString() != want.TableString() {
		t.Fatalf("rows differ:\n%s\nvs\n%s", got.TableString(), want.TableString())
	}
}
