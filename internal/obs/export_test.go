package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

// statsWith returns a counter sink holding the given values.
func statsWith(counters map[string]int64) *sim.Stats {
	s := sim.NewStats()
	for name, v := range counters {
		*s.Counter(name) = v
	}
	return s
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.AttachStats(statsWith(map[string]int64{"noc.packets": 12}))
	h := r.Histogram("dma.xfer.cycles")
	h.Observe(1)
	h.Observe(3)
	h.Observe(99)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE noc_packets counter\nnoc_packets 12\n",
		"# TYPE dma_xfer_cycles histogram\n",
		"dma_xfer_cycles_bucket{le=\"1\"} 1\n",
		"dma_xfer_cycles_bucket{le=\"4\"} 2\n",  // cumulative
		"dma_xfer_cycles_bucket{le=\"64\"} 2\n", // 99 is above 64
		"dma_xfer_cycles_bucket{le=\"256\"} 3\n",
		"dma_xfer_cycles_bucket{le=\"1048576\"} 3\n",
		"dma_xfer_cycles_bucket{le=\"+Inf\"} 3\n", // total
		"dma_xfer_cycles_sum 103\n",
		"dma_xfer_cycles_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusDeterministicAndSorted(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		// Register in scrambled order; export must sort by name.
		for _, n := range []string{"z.last", "a.first", "m.mid"} {
			r.AttachStats(statsWith(map[string]int64{n: 1}))
		}
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := build()
	if out != build() {
		t.Fatal("two identical registries exported different bytes")
	}
	if strings.Index(out, "a_first") > strings.Index(out, "m_mid") ||
		strings.Index(out, "m_mid") > strings.Index(out, "z_last") {
		t.Fatalf("export not sorted by name:\n%s", out)
	}
}

func TestWriteJSONShape(t *testing.T) {
	r := NewRegistry()
	r.AttachStats(statsWith(map[string]int64{"c": 2}))
	r.AttachStats(statsWith(map[string]int64{"c": 3})) // same name: sums
	r.Histogram("h").Observe(7)

	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Bounds []int64 `json:"bounds"`
			Counts []int64 `json:"counts"`
			Sum    int64   `json:"sum"`
			Count  int64   `json:"count"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(b.String()), &dump); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if dump.Counters["c"] != 5 {
		t.Fatalf("counter c = %d, want 5 (sink 2 + sink 3)", dump.Counters["c"])
	}
	h := dump.Histograms["h"]
	if len(h.Bounds) != numBounds || h.Bounds[1] != 4 || h.Bounds[2] != 16 ||
		len(h.Counts) != numBounds+1 || h.Counts[2] != 1 || h.Sum != 7 || h.Count != 1 {
		t.Fatalf("histogram shape wrong: %+v", h)
	}
}

func TestPromNameSanitizes(t *testing.T) {
	for in, want := range map[string]string{
		"noc.link.stall_cycles": "noc_link_stall_cycles",
		"dma-retry.count":       "dma_retry_count",
		"plain":                 "plain",
	} {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
