package snpu

// Golden pin for the beyond-paper sweep tables. The serve, resilience,
// decode and chaos sweeps must render byte-identical tables for seeds
// 1–3, compared against a committed file. The fresh-vs-pooled tests
// only compare a run with itself; this one pins the numbers. -short
// checks seed 1 only.
// Regenerate with:
//
//	go test . -run TestSweepTablesGolden -update-golden
//
// and review the diff like any other contract change.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

var sweepGoldenPath = filepath.Join("testdata", "sweep_tables.golden")

type tabler interface{ TableString() string }

// table renders a sweep result, passing its error through.
func table[T tabler](res T, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return res.TableString(), nil
}

// sweepPins lists every pinned sweep shape, in file order.
var sweepPins = []struct {
	name   string
	render func(seed int64) (string, error)
}{
	{"serve", func(seed int64) (string, error) { return table(ServeBench(seed)) }},
	{"resilience", func(seed int64) (string, error) { return table(ResilienceBench(seed)) }},
	{"decode", func(seed int64) (string, error) { return table(DecodeBench(seed)) }},
	{"chaos-yololite", func(seed int64) (string, error) { return table(Chaos("yololite", seed)) }},
}

// parseSweepGolden splits the golden file into its "== key ==" sections.
func parseSweepGolden(raw string) map[string]string {
	out := map[string]string{}
	var key string
	var body strings.Builder
	flush := func() {
		if key != "" {
			out[key] = body.String()
		}
		body.Reset()
	}
	for _, line := range strings.SplitAfter(raw, "\n") {
		if strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " ==\n") {
			flush()
			key = strings.TrimSuffix(strings.TrimPrefix(line, "== "), " ==\n")
			continue
		}
		body.WriteString(line)
	}
	flush()
	return out
}

func TestSweepTablesGolden(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() && !*updateGolden {
		seeds = seeds[:1]
	}
	var keys []string
	got := map[string]string{}
	for _, p := range sweepPins {
		for _, seed := range seeds {
			key := fmt.Sprintf("%s seed %d", p.name, seed)
			tbl, err := p.render(seed)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			keys = append(keys, key)
			got[key] = tbl
		}
	}
	if *updateGolden {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "== %s ==\n%s", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(sweepGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sweepGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d tables)", sweepGoldenPath, len(keys))
		return
	}
	raw, err := os.ReadFile(sweepGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	want := parseSweepGolden(string(raw))
	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s has no pin in %s (rerun with -update-golden and review)", k, sweepGoldenPath)
			continue
		}
		if got[k] != w {
			t.Errorf("%s table changed (intentional? rerun with -update-golden and review):\n--- pinned ---\n%s--- got ---\n%s", k, w, got[k])
		}
	}
}
