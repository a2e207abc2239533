package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Exporters. Both formats are deterministic: metrics render sorted by
// name, and same-named counters from attached sim.Stats sinks sum to
// one line regardless of attachment or completion order.

// promName maps a dotted metric path onto the Prometheus identifier
// charset (dots and dashes become underscores).
func promName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			return r
		default:
			return '_'
		}
	}, name)
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (counters, and histograms with cumulative
// le-labeled buckets).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder

	counters := r.counterTotals()
	for _, name := range sortedKeys(counters) {
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", pn, pn, counters[name])
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", pn)
		cum := int64(0)
		for i, bound := range bounds {
			cum += h.counts[i]
			fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", pn, bound, cum)
		}
		cum += h.counts[numBounds]
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", pn, cum)
		fmt.Fprintf(&b, "%s_sum %d\n%s_count %d\n", pn, h.sum, pn, cum)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// jsonHistogram is the JSON shape of one histogram.
type jsonHistogram struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"` // per-bucket; last entry is +Inf
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
}

// jsonDump is the JSON export shape. encoding/json sorts map keys, so
// the output is deterministic.
type jsonDump struct {
	Counters   map[string]int64         `json:"counters"`
	Histograms map[string]jsonHistogram `json:"histograms"`
}

// WriteJSON renders every metric as one indented JSON document.
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	dump := jsonDump{
		Counters:   r.counterTotals(),
		Histograms: make(map[string]jsonHistogram, len(r.hists)),
	}
	for name, h := range r.hists {
		dump.Histograms[name] = jsonHistogram{
			Bounds: bounds[:],
			Counts: h.BucketCounts(),
			Sum:    h.sum,
			Count:  h.Count(),
		}
	}
	r.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}
