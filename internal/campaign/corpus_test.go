package campaign

// Replay harness for the committed corpus: every entry under
// testdata/fuzz/FuzzCampaign must decode, execute clean, and — run
// twice on fresh Systems — produce byte-identical decision logs and
// identical coverage signals. CI runs this under -race, so the replay
// also proves the campaign engine itself is data-race free.
//
// Each entry's coverage signal (decision hash and transition bitmap)
// is also pinned in testdata/corpus_signals.txt — outside the fuzz
// directory, whose every file the fuzzer reads as corpus — so a change
// that moves any committed scenario onto a different path fails here.
//
// Regenerate the seed files after changing the encoding, and the pins
// after an intentional change of scheduling or monitor behaviour:
//
//	go test ./internal/campaign -run 'TestWriteSeedCorpus|TestCampaignCorpus' -write-corpus

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var writeCorpus = flag.Bool("write-corpus", false, "rewrite the committed seed corpus files")

var (
	corpusDir   = filepath.Join("testdata", "fuzz", "FuzzCampaign")
	signalsPath = filepath.Join("testdata", "corpus_signals.txt")
)

// signalLine renders one entry's pinned coverage signal.
func signalLine(name string, out *Outcome) string {
	return fmt.Sprintf("%s hash=%016x bitmap=%016x", name, out.Hash, out.Bitmap)
}

// readSignals loads the committed pins, keyed by entry name.
func readSignals(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(signalsPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -write-corpus)", err)
	}
	pins := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, _, _ := strings.Cut(line, " ")
		pins[name] = line
	}
	return pins
}

// seedCorpus names every committed entry. The two historical bugs
// lead; the rest cover one leg of the state space each.
func seedCorpus() map[string][]byte {
	return map[string][]byte{
		"admit-early":     Encode(AdmitEarlyScenario()),
		"deadline-cut":    Encode(DeadlineCutScenario()),
		"hostile-monitor": Encode(HostileMonitorScenario()),
		"drain-race":      Encode(DrainRaceScenario()),
		"serve-rejected":  Encode(ServeRejectedScenario()),
		"kv-residency":    Encode(KVResidencyScenario()),
		"decode-serve":    Encode(DecodeServeScenario()),
		"chaos-generated": {flagGenerated | flagChaos, 11, 2, 2, 1, 1, 0, 5, 0x3a, 0x91, 0x44, 0x07, 0xc2, 0x15, 0x68, 0xde},
		"serve-run":       {flagServeLo, 3, 1, 0, 0, 0, 0, 0, 0},
	}
}

func marshalCorpusEntry(data []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data))
}

func unmarshalCorpusEntry(t *testing.T, raw []byte) []byte {
	t.Helper()
	lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("not a go corpus file: %.80q", raw)
	}
	body := strings.TrimSpace(lines[1])
	body = strings.TrimSuffix(strings.TrimPrefix(body, "[]byte("), ")")
	s, err := strconv.Unquote(body)
	if err != nil {
		t.Fatalf("unquote %q: %v", body, err)
	}
	return []byte(s)
}

func TestWriteSeedCorpus(t *testing.T) {
	if !*writeCorpus {
		t.Skip("pass -write-corpus to rewrite the seed corpus")
	}
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seedCorpus() {
		path := filepath.Join(corpusDir, "seed-"+name)
		if err := os.WriteFile(path, marshalCorpusEntry(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCampaignCorpus is the deterministic replay path: `go test -run
// TestCampaignCorpus ./internal/campaign` executes every committed
// corpus entry twice and cross-checks the runs byte for byte.
func TestCampaignCorpus(t *testing.T) {
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty seed corpus")
	}
	names := map[string]bool{}
	for _, e := range entries {
		names[e.Name()] = true
	}
	for _, want := range []string{"seed-admit-early", "seed-deadline-cut"} {
		if !names[want] {
			t.Fatalf("historical bug seed %s missing from the corpus", want)
		}
	}
	var (
		mu      sync.Mutex
		signals []string // recorded under -write-corpus
		pins    map[string]string
	)
	if *writeCorpus {
		t.Cleanup(func() {
			sort.Strings(signals)
			if err := os.WriteFile(signalsPath, []byte(strings.Join(signals, "\n")+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		})
	} else {
		pins = readSignals(t)
		if len(pins) != len(entries) {
			t.Fatalf("%s pins %d entries, the corpus has %d (regenerate with -write-corpus)",
				signalsPath, len(pins), len(entries))
		}
	}
	for _, e := range entries {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			t.Parallel()
			raw, err := os.ReadFile(filepath.Join(corpusDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			data := unmarshalCorpusEntry(t, raw)
			first, err := Run(data)
			if err != nil {
				t.Fatalf("corpus entry violates invariants: %v", err)
			}
			again, err := Run(data)
			if err != nil {
				t.Fatalf("second run violates invariants: %v", err)
			}
			if a, b := first.Report.DecisionLog(), again.Report.DecisionLog(); a != b {
				t.Fatalf("decision log not deterministic\n--- first ---\n%s\n--- again ---\n%s", a, b)
			}
			if first.Hash != again.Hash || first.Bitmap != again.Bitmap {
				t.Fatalf("coverage signal not deterministic: %#x/%#x vs %#x/%#x",
					first.Hash, first.Bitmap, again.Hash, again.Bitmap)
			}
			got := signalLine(e.Name(), first)
			if *writeCorpus {
				mu.Lock()
				signals = append(signals, got)
				mu.Unlock()
				return
			}
			if want := pins[e.Name()]; got != want {
				t.Fatalf("coverage signal moved off its pin (intentional? rerun with -write-corpus and review)\n got: %s\nwant: %s",
					got, want)
			}
		})
	}
}

// The committed historical-bug entries must stay in sync with their
// scenario constructors: a drifted encoding would silently stop
// guarding the bug it was minimized from.
func TestCorpusMatchesSeedScenarios(t *testing.T) {
	for name, want := range seedCorpus() {
		raw, err := os.ReadFile(filepath.Join(corpusDir, "seed-"+name))
		if err != nil {
			t.Fatalf("%s: %v (regenerate with -write-corpus)", name, err)
		}
		got := unmarshalCorpusEntry(t, raw)
		if string(got) != string(want) {
			t.Fatalf("seed-%s drifted from its scenario constructor: got %q want %q (regenerate with -write-corpus)",
				name, got, want)
		}
	}
}
