// Package experiments regenerates every table and figure of the
// paper's evaluation (§VI) on the simulated SoC. Each Fig/Table
// function returns one result type, Result: typed rows plus the
// columns that render them as a text table, so the same code backs the
// bench harness (bench_test.go), the CLI (cmd/snpu-bench), and
// EXPERIMENTS.md. The root package's sweeps return the same type.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/guarder"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/tee"
	"repro/internal/workload"
	"repro/internal/xlate"
)

// Layout of the simulated SoC's physical memory.
const (
	NormalBase   = mem.PhysAddr(0x8000_0000)
	NormalSize   = uint64(0x0800_0000) // 128 MB normal DRAM
	ReservedBase = mem.PhysAddr(0x8800_0000)
	ReservedSize = uint64(0x1800_0000) // 384 MB NPU-reserved (CMA)
	SecureBase   = mem.PhysAddr(0xA000_0000)
	SecureSize   = uint64(0x1000_0000) // 256 MB secure world
)

// SoC bundles one freshly booted simulated system.
type SoC struct {
	Phys    *mem.Physical
	Machine *tee.Machine
	Stats   *sim.Stats
	NPU     *npu.NPU
}

// NewSoC boots a system: memory regions, secure-boot chain, and an
// NPU whose per-core translators come from makeXlate, called with the
// SoC's counters (nil = identity/no protection). It is the one boot
// path: snpu.New builds its Guarders through makeXlate.
func NewSoC(cfg npu.Config, makeXlate func(core int, stats *sim.Stats) xlate.Translator) (*SoC, error) {
	phys := mem.NewPhysical()
	regions := []mem.Region{
		{Name: "normal", Base: NormalBase, Size: NormalSize, Owner: mem.Normal, CrossPerm: mem.PermRW},
		{Name: "npu-reserved", Base: ReservedBase, Size: ReservedSize, Owner: mem.Normal, CrossPerm: mem.PermRW},
		{Name: "secure", Base: SecureBase, Size: SecureSize, Owner: mem.Secure},
	}
	for _, r := range regions {
		if err := phys.AddRegion(r); err != nil {
			return nil, err
		}
	}
	machine := tee.NewMachine(phys)
	blobs := [][]byte{[]byte("trusted-loader"), []byte("trusted-firmware"), []byte("teeos"), []byte("npu-monitor")}
	names := []string{"trusted-loader", "trusted-firmware", "teeos", "npu-monitor"}
	for i, b := range blobs {
		machine.BootChain().AddStage(names[i], tee.MeasureBytes(b))
	}
	if err := machine.Boot(blobs); err != nil {
		return nil, err
	}
	stats := sim.NewStats()
	var perCore func(core int) xlate.Translator
	if makeXlate != nil {
		perCore = func(core int) xlate.Translator { return makeXlate(core, stats) }
	}
	acc, err := npu.New(cfg, phys, stats, perCore)
	if err != nil {
		return nil, err
	}
	RecordSoCStats(stats)
	return &SoC{Phys: phys, Machine: machine, Stats: stats, NPU: acc}, nil
}

// Reset scrubs the SoC back to its freshly booted state: the NPU (with
// its boot translators restored), backing memory, and every counter.
func (soc *SoC) Reset() {
	soc.NPU.Reset()
	soc.Phys.Reset()
	soc.Stats.Reset()
}

// Mechanism names one access-control configuration of Fig. 13.
type Mechanism struct {
	Name string
	// IOTLBEntries > 0 selects an IOMMU; Guarder selects the NPU
	// Guarder; neither selects the unprotected baseline.
	IOTLBEntries int
	Guarder      bool
}

// Fig13Mechanisms is the comparison set: baseline, IOTLB-4..32,
// Guarder.
func Fig13Mechanisms() []Mechanism {
	return []Mechanism{
		{Name: "none"},
		{Name: "iotlb-4", IOTLBEntries: 4},
		{Name: "iotlb-8", IOTLBEntries: 8},
		{Name: "iotlb-16", IOTLBEntries: 16},
		{Name: "iotlb-32", IOTLBEntries: 32},
		{Name: "guarder", Guarder: true},
	}
}

// RunSolo compiles a workload and runs it alone on core 0 behind the
// boot identity translator (the unprotected baseline), returning the
// cycle count and the final stats snapshot.
func RunSolo(w workload.Workload, cfg npu.Config) (sim.Cycle, map[string]int64, error) {
	soc, err := AcquireSoC(cfg)
	if err != nil {
		return 0, nil, err
	}
	defer soc.Release()
	prog, _, err := npu.CompileCached(w, cfg, 0, npu.DefaultLayout)
	if err != nil {
		return 0, nil, err
	}
	core, err := soc.NPU.Core(0)
	if err != nil {
		return 0, nil, err
	}
	ex := npu.NewExec(core, prog, 1)
	end, err := ex.Run(0)
	if err != nil {
		return 0, nil, err
	}
	snap := soc.Stats.Snapshot()
	return end, snap, nil
}

// CompanionLayout places a second task's VA window away from the
// first so both can share one IO page table (distinct IOVA ranges, as
// a real driver would allocate).
var CompanionLayout = npu.Layout{WeightBase: 0x4000_0000}

// RunContended reproduces the paper's multi-tasking environment: the
// measured model runs on core 0 while a companion copy runs on core 1,
// both behind the SAME access-control unit (the TrustZone-NPU design
// shares one sMMU per NPU device, so the two request streams contend
// for IOTLB capacity — the "ping-pong" the paper cites). The Guarder
// is per-core register state, so it suffers no such interference.
// Returns core 0's finish cycle and the stats snapshot.
func RunContended(w workload.Workload, mech Mechanism, cfg npu.Config) (sim.Cycle, map[string]int64, error) {
	soc, err := AcquireSoC(cfg)
	if err != nil {
		return 0, nil, err
	}
	defer soc.Release()
	prog0, _, err := npu.CompileCached(w, cfg, 0, npu.DefaultLayout)
	if err != nil {
		return 0, nil, err
	}
	prog1, _, err := npu.CompileCached(w, cfg, 0, CompanionLayout)
	if err != nil {
		return 0, nil, err
	}
	core0, err := soc.NPU.Core(0)
	if err != nil {
		return 0, nil, err
	}
	core1, err := soc.NPU.Core(1)
	if err != nil {
		return 0, nil, err
	}
	if err := installShared(soc, core0, core1, prog0, prog1, mech); err != nil {
		return 0, nil, err
	}

	execs := []*npu.Exec{npu.NewExec(core0, prog0, 1), npu.NewExec(core1, prog1, 2)}
	now := make([]sim.Cycle, len(execs))
	if err := npu.Interleave(execs, now, nil); err != nil {
		return 0, nil, err
	}
	return now[0], soc.Stats.Snapshot(), nil
}

// installShared wires the mechanism for the contended pair. For an
// IOMMU, one unit serves both cores (stream-tagged entries, so no
// flush between streams, but full capacity contention). For the
// Guarder and the baseline, state is per core. Each task's window maps
// onto its own half of the reserved region.
func installShared(soc *SoC, core0, core1 *npu.Core, prog0, prog1 *npu.Program, mech Mechanism) error {
	companionPA := ReservedBase + mem.PhysAddr(ReservedSize/2)
	if mech.IOTLBEntries == 0 {
		if err := installMechanism(soc, core0, prog0, mech, ReservedBase); err != nil {
			return err
		}
		return installMechanism(soc, core1, prog1, mech, companionPA)
	}
	ucfg := iommu.DefaultConfig(mech.IOTLBEntries)
	// The shared sMMU tags entries with stream IDs, so the two
	// cores' streams coexist (no flush) but contend for capacity.
	ucfg.FlushOnContextSwitch = false
	ucfg.TagWithASID = true
	u := iommu.New(ucfg, soc.Stats)
	pas := []mem.PhysAddr{ReservedBase, companionPA}
	for i, prog := range []*npu.Program{prog0, prog1} {
		vbase, size := mem.PageWindow(prog.VASpan())
		if err := u.Table().MapRange(vbase, pas[i], size, mem.PermRW, false); err != nil {
			return err
		}
	}
	core0.DMA().SetTranslator(u)
	core1.DMA().SetTranslator(u)
	return nil
}

// installMechanism wires a per-core access-control unit in front of
// core's DMA engine: the Guarder, its window onto the physical range
// at pa programmed by the secure context setter, or the identity
// translator of the baseline. A shared IOMMU is installShared's.
func installMechanism(soc *SoC, core *npu.Core, prog *npu.Program, mech Mechanism, pa mem.PhysAddr) error {
	vbase, size := mem.PageWindow(prog.VASpan())
	switch {
	case mech.Guarder:
		g := guarder.NewDefault(soc.Stats)
		sec := soc.Machine.SecureContext()
		if err := g.SetTransReg(sec, 0, guarder.TransReg{VBase: vbase, PBase: pa, Size: size, Valid: true}); err != nil {
			return err
		}
		if err := g.SetCheckReg(sec, 0, guarder.CheckReg{Base: ReservedBase, Size: ReservedSize, Perm: mem.PermRW, World: mem.Normal, Valid: true}); err != nil {
			return err
		}
		core.DMA().SetTranslator(g)
	default:
		core.DMA().SetTranslator(xlate.NewIdentity(soc.Stats))
	}
	return nil
}

// Column is one column of a result table: its header, the fmt verb
// that formats it, and the value it reads from a row.
type Column[R any] struct {
	head, verb string
	value      func(R) any
}

// Col builds a Column.
func Col[R any](head, verb string, value func(R) any) Column[R] {
	return Column[R]{head: head, verb: verb, value: value}
}

// Result is an experiment's typed rows plus the columns that render
// them: every figure and sweep whose output is one table returns one.
type Result[R any] struct {
	Rows []R
	Cols []Column[R]
}

// TableString renders the result.
func (r *Result[R]) TableString() string { return Render(r.Rows, r.Cols) }

// Render formats rows under cols as a Table; results with more than
// one view (Fig. 13) render each view through it.
func Render[R any](rows []R, cols []Column[R]) string {
	header := make([]string, len(cols))
	for i, c := range cols {
		header[i] = c.head
	}
	cells := make([][]string, len(rows))
	for i, row := range rows {
		cells[i] = make([]string, len(cols))
		for j, c := range cols {
			cells[i][j] = fmt.Sprintf(c.verb, c.value(row))
		}
	}
	return Table(header, cells)
}

// Table renders rows of cells as a fixed-width text table.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
