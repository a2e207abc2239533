package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func secureSeq(seed int64, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = secureModel(seed, i)
	}
	return out
}

func figureSeq(seed int64, n int) []figureOp {
	out := make([]figureOp, n)
	for i := range out {
		out[i] = figureOpAt(seed, i)
	}
	return out
}

func serveSeq(seed int64, n int) string {
	docs := [][]byte{[]byte(`{"doc":1}`), []byte(`{"doc":2}`)}
	var b strings.Builder
	for i := 0; i < n; i++ {
		for _, s := range serveEpisode(seed, i, docs) {
			fmt.Fprintf(&b, "%s steps=%d graph=%v\n", mustJSON(s.req), s.steps, s.graph)
		}
	}
	return b.String()
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	if a, b := secureSeq(7, 200), secureSeq(7, 200); !reflect.DeepEqual(a, b) {
		t.Error("secure-infer sequence differs for the same seed")
	}
	if reflect.DeepEqual(secureSeq(7, 200), secureSeq(8, 200)) {
		t.Error("secure-infer sequence is the same for seeds 7 and 8")
	}
	if a, b := figureSeq(7, 60), figureSeq(7, 60); !reflect.DeepEqual(a, b) {
		t.Error("figures sequence differs for the same seed")
	}
	if reflect.DeepEqual(figureSeq(7, 60), figureSeq(8, 60)) {
		t.Error("figures sequence is the same for seeds 7 and 8")
	}
	if serveSeq(7, 5) != serveSeq(7, 5) {
		t.Error("serve episodes differ for the same seed")
	}
	if serveSeq(7, 5) == serveSeq(8, 5) {
		t.Error("serve episodes are the same for seeds 7 and 8")
	}
	if secureNonce(7, 3) != secureNonce(7, 3) || secureNonce(7, 3) == secureNonce(8, 3) {
		t.Error("attestation nonces are not a function of (seed, request)")
	}
}

// The prefix holds the same multiset of inputs for every seed, so the
// simulated metrics do not depend on which seed a run draws.
func TestPrefixSameMultisetAcrossSeeds(t *testing.T) {
	count := func(xs []string) map[string]int {
		m := map[string]int{}
		for _, x := range xs {
			m[x]++
		}
		return m
	}
	if a, b := count(secureSeq(1, 2*secureBlock)), count(secureSeq(2, 2*secureBlock)); !reflect.DeepEqual(a, b) {
		t.Errorf("secure-infer prefix mix differs: %v vs %v", a, b)
	}
	n := newFigures(0).prefix()
	var a, b []string
	for _, op := range figureSeq(1, n) {
		a = append(a, op.fig+"/"+op.model)
	}
	for _, op := range figureSeq(2, n) {
		b = append(b, op.fig+"/"+op.model)
	}
	if !reflect.DeepEqual(count(a), count(b)) {
		t.Errorf("figures prefix differs: %v vs %v", count(a), count(b))
	}
}

// No tenant may exceed the daemon's default queue bound of 8 in one
// episode, or submits would be refused.
func TestServeEpisodesStayInsideAdmissionBounds(t *testing.T) {
	docs := [][]byte{[]byte(`{}`)}
	for seed := int64(0); seed < 20; seed++ {
		for i := 0; i < 50; i++ {
			perTenant := map[string]int{}
			for _, s := range serveEpisode(seed, i, docs) {
				perTenant[s.req.Tenant]++
				if s.req.Decode != nil && !s.req.Secure {
					t.Fatalf("seed %d episode %d: non-secure decode request", seed, i)
				}
			}
			for tenant, n := range perTenant {
				if n > 8 {
					t.Fatalf("seed %d episode %d: tenant %s submits %d requests", seed, i, tenant, n)
				}
			}
		}
	}
}

// p50 and p90 of a secure-infer phase must land inside one model's
// cluster of host latencies, with margin, even when a phase ends on a
// partial block.
func TestSecureMixKeepsPercentilesInsideClusters(t *testing.T) {
	total := 0
	for _, m := range secureMix {
		total += m.n
	}
	if total != secureBlock {
		t.Fatalf("secureMix sums to %d, want %d", total, secureBlock)
	}
	cum := 0.0
	for _, m := range secureMix {
		lo := cum
		cum += float64(m.n) / secureBlock
		for _, p := range []float64{0.5, 0.9} {
			if p > lo && p < cum && (p-lo < 0.05 || cum-p < 0.05) {
				t.Errorf("p%.0f sits within 5%% of the %s cluster edge [%.2f, %.2f]", p*100, m.model, lo, cum)
			}
		}
	}
}

func TestPercentileSampleCounts(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 90); err == nil {
		t.Error("p90 of 99 samples should be refused")
	}
	q, err := percentile(xs, 50)
	if err != nil || q.N != 99 || q.Value != 50 {
		t.Errorf("p50 of 1..99 = %+v, %v; want 50 over 99 samples", q, err)
	}
	xs = append(xs, 100)
	q, err = percentile(xs, 90)
	if err != nil || q.N != 100 || q.Value != 90 {
		t.Errorf("p90 of 1..100 = %+v, %v; want 90 over 100 samples", q, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("p50 of no samples should fail")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

// BENCHMARK.json names exactly the metrics the program prints, and
// every name is well formed.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if !metricName.MatchString(w.name) {
				t.Errorf("%s: bad metric name %q", kind, w.name)
			}
			if got[i].Name != w.name || got[i].Unit != w.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s, the program %s/%s", kind, i, got[i].Name, got[i].Unit, w.name, w.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 25, End: 50}, // overlaps a by 5
		{Name: "c", Parent: 2, Start: 30, End: 40},
		{Name: "d", Parent: 0, Start: 90, End: 120}, // runs past the root's end
	}
	got := selfTimes(spans)
	// root: 100 - covered [10,50) and [90,100) = 100 - 50
	want := []int64{50, 20, 15, 10, 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
	ls := layers(spans)
	if len(ls) != 5 || ls[0].Name != "a" || ls[3].Name != "d" || ls[4].SelfMS != 50/1e6 {
		t.Errorf("layers = %+v", ls)
	}
}

func TestTracerNestsAndNilIsNoop(t *testing.T) {
	var off *tracer
	off.stop(off.start("x"))
	off.count("n", 1)

	tr := newTracer()
	tr.op = 3
	root := tr.start("root")
	child := tr.start("child")
	tr.stop(child)
	tr.start("left-open")
	tr.stop(root) // closes left-open too
	if len(tr.spans) != 3 || tr.spans[1].Parent != root || tr.spans[2].Parent != root || tr.spans[0].Parent != -1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.Op != 3 || s.End < s.Start {
			t.Errorf("span %+v", s)
		}
	}
}
