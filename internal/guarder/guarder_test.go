package guarder

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tee"
	"repro/internal/xlate"
)

func newGuarder(t *testing.T) (*Guarder, tee.Context, *sim.Stats) {
	t.Helper()
	phys := mem.NewPhysical()
	machine := tee.NewMachine(phys)
	stats := sim.NewStats()
	g := NewDefault(stats)
	sec := machine.SecureContext()
	// Authority: normal world may RW the NPU-reserved region; secure
	// world may RW the secure region and the reserved region.
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.SetCheckReg(sec, 0, CheckReg{Base: 0x8800_0000, Size: 0x0100_0000, Perm: mem.PermRW, World: mem.Normal, Valid: true}))
	must(g.SetCheckReg(sec, 1, CheckReg{Base: 0x9000_0000, Size: 0x0080_0000, Perm: mem.PermRW, World: mem.Secure, Valid: true}))
	must(g.SetCheckReg(sec, 2, CheckReg{Base: 0x8800_0000, Size: 0x0100_0000, Perm: mem.PermRW, World: mem.Secure, Valid: true}))
	// Translation: a normal task tile chunk and a secure tile chunk.
	must(g.SetTransReg(sec, 0, TransReg{VBase: 0x1_0000, PBase: 0x8800_4000, Size: 0x1_0000, Valid: true}))
	must(g.SetTransReg(sec, 1, TransReg{VBase: 0x8_0000, PBase: 0x9000_1000, Size: 0x8000, Valid: true}))
	return g, sec, stats
}

func TestGuarderTranslateAndCheck(t *testing.T) {
	g, _, stats := newGuarder(t)
	res, err := g.Translate(xlate.Request{VA: 0x1_0040, Bytes: 4096, Need: mem.PermRead, World: mem.Normal}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PA != 0x8800_4040 {
		t.Fatalf("pa = %#x", uint64(res.PA))
	}
	if res.Stall != 0 {
		t.Fatalf("guarder stalled %d cycles, want 0", res.Stall)
	}
	// One check per request regardless of size (4096B = 64 packets).
	if stats.Get(sim.CtrGuarderChecks) != 1 || stats.Get(sim.CtrTranslations) != 1 {
		t.Fatalf("request-level counting broken: checks=%d translations=%d",
			stats.Get(sim.CtrGuarderChecks), stats.Get(sim.CtrTranslations))
	}
}

func TestGuarderDeniesSecureRegionToNormalWorld(t *testing.T) {
	g, _, stats := newGuarder(t)
	_, err := g.Translate(xlate.Request{VA: 0x8_0000, Bytes: 64, Need: mem.PermRead, World: mem.Normal}, 0)
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("normal world reached secure memory: %v", err)
	}
	if stats.Get(sim.CtrGuarderDenied) != 1 {
		t.Fatal("denial not counted")
	}
	// Secure world succeeds on the same range.
	if _, err := g.Translate(xlate.Request{VA: 0x8_0000, Bytes: 64, Need: mem.PermRead, World: mem.Secure}, 0); err != nil {
		t.Fatalf("secure world denied: %v", err)
	}
}

func TestGuarderUncoveredVADenied(t *testing.T) {
	g, _, _ := newGuarder(t)
	_, err := g.Translate(xlate.Request{VA: 0xdead_0000, Bytes: 64, Need: mem.PermRead, World: mem.Normal}, 0)
	if !errors.Is(err, ErrNoTranslation) {
		t.Fatalf("uncovered VA produced %v", err)
	}
	// A request straddling past the end of a translation register is
	// also uncovered — partial coverage must not translate.
	_, err = g.Translate(xlate.Request{VA: 0x1_0000 + 0xF000, Bytes: 0x2000, Need: mem.PermRead, World: mem.Normal}, 0)
	if !errors.Is(err, ErrNoTranslation) {
		t.Fatalf("straddling request produced %v", err)
	}
	if _, err := g.Translate(xlate.Request{VA: 0x1_0000, Bytes: 0, Need: mem.PermRead, World: mem.Normal}, 0); err == nil {
		t.Fatal("empty request accepted")
	}
}

func TestGuarderProgrammingRequiresSecureInstruction(t *testing.T) {
	phys := mem.NewPhysical()
	machine := tee.NewMachine(phys)
	g := NewDefault(sim.NewStats())
	norm := machine.NormalContext()
	reg := CheckReg{Base: 0, Size: 0x1000, Perm: mem.PermRW, World: mem.Normal, Valid: true}
	if err := g.SetCheckReg(norm, 0, reg); !errors.Is(err, tee.ErrPrivilege) {
		t.Fatalf("normal world programmed checking register: %v", err)
	}
	if err := g.SetTransReg(norm, 0, TransReg{Valid: true, Size: 0x1000}); !errors.Is(err, tee.ErrPrivilege) {
		t.Fatalf("normal world programmed translation register: %v", err)
	}
	if err := g.ClearTask(norm); !errors.Is(err, tee.ErrPrivilege) {
		t.Fatalf("normal world cleared task state: %v", err)
	}
}

func TestGuarderRegisterIndexBounds(t *testing.T) {
	g, sec, _ := newGuarder(t)
	if err := g.SetCheckReg(sec, DefaultCheckRegs, CheckReg{}); err == nil {
		t.Fatal("out-of-range checking register accepted")
	}
	if err := g.SetTransReg(sec, -1, TransReg{}); err == nil {
		t.Fatal("negative translation register accepted")
	}
}

func TestGuarderClearTaskInvalidatesTranslations(t *testing.T) {
	g, sec, _ := newGuarder(t)
	if err := g.ClearTask(sec); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Translate(xlate.Request{VA: 0x1_0000, Bytes: 64, Need: mem.PermRead, World: mem.Normal}, 0); err == nil {
		t.Fatal("translation survived ClearTask")
	}
	// Checking registers persist.
	regs := g.CheckRegs()
	if !regs[0].Valid {
		t.Fatal("checking register invalidated by ClearTask")
	}
}

func TestGuarderContextSwitchIsFree(t *testing.T) {
	g, _, stats := newGuarder(t)
	before := stats.Snapshot()
	g.OnContextSwitch(7)
	g.OnContextSwitch(8)
	after := stats.Snapshot()
	for k, v := range after {
		if before[k] != v {
			t.Fatalf("context switch changed counter %s", k)
		}
	}
	// Translations still work after switches.
	if _, err := g.Translate(xlate.Request{VA: 0x1_0000, Bytes: 64, Need: mem.PermRead, World: mem.Normal}, 0); err != nil {
		t.Fatal(err)
	}
}

// Property: for random in-range requests, the Guarder's translation
// agrees with direct offset arithmetic, and out-of-range requests are
// always refused.
func TestGuarderTranslationCorrectness(t *testing.T) {
	g, _, _ := newGuarder(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			off := uint64(rng.Intn(0x1_0000))
			size := uint64(rng.Intn(2048) + 1)
			req := xlate.Request{VA: mem.VirtAddr(0x1_0000 + off), Bytes: size,
				Need: mem.PermRead, World: mem.Normal}
			res, err := g.Translate(req, 0)
			inRange := off+size <= 0x1_0000
			if inRange {
				if err != nil || res.PA != mem.PhysAddr(0x8800_4000+off) {
					return false
				}
			} else if err == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property (security invariant): no sequence of normal-world requests
// can ever yield a PA inside the secure region unless a checking
// register explicitly grants the normal world that region.
func TestGuarderNormalWorldNeverReachesSecurePA(t *testing.T) {
	g, _, _ := newGuarder(t)
	secureBase, secureEnd := uint64(0x9000_0000), uint64(0x9080_0000)
	f := func(vas []uint32, sizes []uint16) bool {
		n := len(vas)
		if len(sizes) < n {
			n = len(sizes)
		}
		for i := 0; i < n; i++ {
			req := xlate.Request{VA: mem.VirtAddr(vas[i]), Bytes: uint64(sizes[i]%4096) + 1,
				Need: mem.PermRead, World: mem.Normal}
			res, err := g.Translate(req, 0)
			if err != nil {
				continue
			}
			pa := uint64(res.PA)
			if pa >= secureBase && pa < secureEnd {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A request whose end wraps the address space is covered by no
// register. Before the check, a window at 0x10_0000 mapped to
// 0x8880_0000 translated a 0x80-byte request at 0xFFFF_FFFF_FFFF_FFC0
// (end 0x40) to 0x886F_FFC0, below the window's physical range.
func TestGuarderDeniesWrappingRequest(t *testing.T) {
	stats := sim.NewStats()
	g := NewDefault(stats)
	sec := tee.NewMachine(mem.NewPhysical()).SecureContext()
	if err := g.SetCheckReg(sec, 0, CheckReg{Base: 0x8800_0000, Size: 0x0100_0000, Perm: mem.PermRW, World: mem.Normal, Valid: true}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetTransReg(sec, 0, TransReg{VBase: 0x10_0000, PBase: 0x8880_0000, Size: 0x1000, Valid: true}); err != nil {
		t.Fatal(err)
	}
	_, err := g.Translate(xlate.Request{VA: 0xFFFF_FFFF_FFFF_FFC0, Bytes: 0x80, Need: mem.PermRead, World: mem.Normal}, 0)
	if !errors.Is(err, ErrNoTranslation) {
		t.Fatalf("wrapping request produced %v", err)
	}
	if stats.Get(sim.CtrGuarderDenied) != 1 {
		t.Fatal("denial not counted")
	}
	if (CheckReg{Base: 0, Size: 0x1000, Valid: true}).covers(0xFFFF_FFFF_FFFF_FF00, 0x200) {
		t.Fatal("checking register covers a physical range that wraps")
	}
	if (TransReg{VBase: 0, Size: 0x1000, Valid: true}).covers(0xFFFF_FFFF_FFFF_FF00, 0x200) {
		t.Fatal("translation register covers a virtual range that wraps")
	}
}
