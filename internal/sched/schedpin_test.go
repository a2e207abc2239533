package sched_test

// Schedule-space pin: every schedule the property and KV-isolation
// suites generate is pinned by its decision-log hash and length. The
// two golden logs cover a few dozen hand-picked decisions; these pins
// cover every batch, drop, deadline miss, reject, join, leave and token
// decision the 400 random schedules reach, so a scheduler refactor that
// moves any one of them fails here. Regenerate with:
//
//	go test ./internal/sched -run 'TestPropertyRandomSchedules|TestKVIsolationRandomSchedules' -update-golden
//
// and review the diff like any other contract change. With -short only
// the seeds that run are checked (or rewritten).

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/sched"
)

var schedulePinPath = filepath.Join("testdata", "golden_schedule_hashes.txt")

var schedulePins struct {
	sync.Mutex
	want map[string]string // committed pins, loaded on first use
	got  map[string]string // pins recorded under -update-golden
}

// checkSchedulePin compares one schedule's decision hash and count with
// its committed pin, or records them under -update-golden.
func checkSchedulePin(t *testing.T, suite string, seed int64, rep *sched.Report) {
	t.Helper()
	key := fmt.Sprintf("%s seed=%03d", suite, seed)
	got := fmt.Sprintf("hash=%016x decisions=%d", rep.DecisionHash(), len(rep.Decisions))
	schedulePins.Lock()
	defer schedulePins.Unlock()
	if *updateGolden {
		if schedulePins.got == nil {
			schedulePins.got = map[string]string{}
		}
		schedulePins.got[key] = got
		return
	}
	if schedulePins.want == nil {
		want, err := readSchedulePins()
		if err != nil {
			t.Fatalf("%v (regenerate with -update-golden)", err)
		}
		schedulePins.want = want
	}
	want, ok := schedulePins.want[key]
	if !ok {
		t.Fatalf("%s has no pin in %s (rerun with -update-golden and review)", key, schedulePinPath)
	}
	if got != want {
		t.Fatalf("%s: %s, pinned %s: the scheduler took a different path "+
			"(intentional? rerun with -update-golden and review)", key, got, want)
	}
}

func readSchedulePins() (map[string]string, error) {
	f, err := os.Open(schedulePinPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pins := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// "<suite> seed=<n> hash=<hex> decisions=<n>"
		fields := strings.Fields(sc.Text())
		if len(fields) != 4 {
			return nil, fmt.Errorf("%s: malformed pin line %q", schedulePinPath, sc.Text())
		}
		pins[fields[0]+" "+fields[1]] = fields[2] + " " + fields[3]
	}
	return pins, sc.Err()
}

// writeSchedulePinsOnUpdate registers, on a suite's parent test, the
// rewrite of the pin file once every schedule subtest has finished.
// Pins recorded this run replace their old lines; the rest are kept,
// so -short or a -run filter rewrites only the seeds it ran.
func writeSchedulePinsOnUpdate(t *testing.T) {
	if !*updateGolden {
		return
	}
	t.Cleanup(func() {
		schedulePins.Lock()
		defer schedulePins.Unlock()
		pins, err := readSchedulePins()
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if pins == nil {
			pins = map[string]string{}
		}
		for k, v := range schedulePins.got {
			pins[k] = v
		}
		keys := make([]string, 0, len(pins))
		for k := range pins {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, pins[k])
		}
		if err := os.WriteFile(schedulePinPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	})
}
