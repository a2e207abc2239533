package experiments

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// TCBRow is one software component's line count in the §VI-F analysis
// applied to THIS repository: the trusted packages (the NPU Monitor
// and what it directly depends on for security decisions) against the
// untrusted NPU software stack.
type TCBRow struct {
	Component string
	Trusted   bool
	LoC       int
}

// TCBResult is the analysis output.
type TCBResult struct {
	Rows []TCBRow
}

// trustedPackages are this repro's TCB: the monitor itself plus the
// security-decision libraries it links (route verification, the TEE
// privilege gate). Everything else — driver, compiler/tiler, models,
// simulator plumbing — stays untrusted, mirroring the paper's split.
var trustedPackages = map[string]bool{
	"monitor":  true,
	"isolator": true,
	"tee":      true,
}

// TCB counts non-blank, non-comment-only lines of Go (excluding
// tests) per internal package of this repository.
func TCB() (*TCBResult, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	internal := filepath.Join(root, "internal")
	entries, err := os.ReadDir(internal)
	if err != nil {
		return nil, err
	}
	res := &TCBResult{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		loc, err := countPackageLoC(filepath.Join(internal, e.Name()))
		if err != nil {
			return nil, err
		}
		if loc == 0 {
			continue
		}
		res.Rows = append(res.Rows, TCBRow{
			Component: e.Name(),
			Trusted:   trustedPackages[e.Name()],
			LoC:       loc,
		})
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		if res.Rows[i].Trusted != res.Rows[j].Trusted {
			return res.Rows[i].Trusted
		}
		return res.Rows[i].LoC > res.Rows[j].LoC
	})
	return res, nil
}

// Totals reports (trusted, untrusted) LoC.
func (t *TCBResult) Totals() (trusted, untrusted int) {
	for _, r := range t.Rows {
		if r.Trusted {
			trusted += r.LoC
		} else {
			untrusted += r.LoC
		}
	}
	return trusted, untrusted
}

var tcbCols = []Column[TCBRow]{
	Col("component", "%s", func(r TCBRow) any { return r.Component }),
	Col("trusted", "%s", func(r TCBRow) any {
		if r.Trusted {
			return "YES"
		}
		return "no"
	}),
	Col("loc", "%d", func(r TCBRow) any { return r.LoC }),
}

// TableString renders the analysis, closed by its two totals rows.
func (t *TCBResult) TableString() string {
	trusted, untrusted := t.Totals()
	return Render(slices.Concat(t.Rows, []TCBRow{
		{Component: "TOTAL-TCB", Trusted: true, LoC: trusted},
		{Component: "TOTAL-UNTRUSTED", LoC: untrusted},
	}), tcbCols)
}

// repoRoot locates the module root from this source file's path.
func repoRoot() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("experiments: cannot locate source file")
	}
	// file = <root>/internal/experiments/tcb.go
	return filepath.Dir(filepath.Dir(filepath.Dir(file))), nil
}

// countPackageLoC counts code lines in non-test Go files.
func countPackageLoC(dir string) (int, error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, f := range files {
		name := f.Name()
		if f.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		n, err := countFileLoC(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

func countFileLoC(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	inBlockComment := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if inBlockComment {
			if strings.Contains(line, "*/") {
				inBlockComment = false
			}
			continue
		}
		if strings.HasPrefix(line, "//") {
			continue
		}
		if strings.HasPrefix(line, "/*") {
			if !strings.Contains(line, "*/") {
				inBlockComment = true
			}
			continue
		}
		n++
	}
	return n, sc.Err()
}
