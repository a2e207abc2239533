package npu_test

import (
	"testing"

	"repro/internal/guarder"
	"repro/internal/mem"
	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/tee"
	"repro/internal/workload"
	"repro/internal/xlate"
)

// BenchmarkCompile compiles two single models and the 54 programs
// Fig. 15 compiles (three pairs at nine scratchpad splits), uncached.
func BenchmarkCompile(b *testing.B) {
	cfg := npu.DefaultConfig()
	lookup := func(name string) workload.Workload {
		w, err := workload.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		return w
	}
	for _, name := range []string{"yololite", "bert"} {
		w := lookup(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := npu.Compile(w, cfg, 0, npu.DefaultLayout); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	progs := fig15Budgets(cfg)
	ws := make([]workload.Workload, len(progs))
	for i, c := range progs {
		ws[i] = lookup(c.model)
	}
	b.Run("fig15-budgets", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, c := range progs {
				if _, _, err := npu.Compile(ws[j], cfg, c.budget, npu.DefaultLayout); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkExec runs a compiled program to completion on one core
// behind the Guarder, timing only (no scratchpad bytes move), and
// reports the executor's wall time per op.
func BenchmarkExec(b *testing.B) {
	cfg := npu.DefaultConfig()
	for _, name := range []string{"yololite", "bert"} {
		w, err := workload.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		p, _, err := npu.CompileCached(w, cfg, 0, npu.DefaultLayout)
		if err != nil {
			b.Fatal(err)
		}
		ops := len(npu.ExpandOps(p))
		b.Run(name, func(b *testing.B) {
			stats := sim.NewStats()
			g := guarder.NewDefault(stats)
			vbase, size := mem.PageWindow(p.VASpan())
			const pa = mem.PhysAddr(0x8000_0000)
			sec := tee.NewMachine(mem.NewPhysical()).SecureContext()
			if err := g.SetTransReg(sec, 0, guarder.TransReg{VBase: vbase, PBase: pa, Size: size, Valid: true}); err != nil {
				b.Fatal(err)
			}
			if err := g.SetCheckReg(sec, 0, guarder.CheckReg{Base: pa, Size: size, Perm: mem.PermRW, World: mem.Normal, Valid: true}); err != nil {
				b.Fatal(err)
			}
			n, err := npu.New(cfg, mem.NewPhysical(), stats, func(int) xlate.Translator { return g })
			if err != nil {
				b.Fatal(err)
			}
			core, err := n.Core(0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.ResetTiming()
				if _, err := npu.NewExec(core, p, 1).Run(0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ops), "ns/exec-op")
		})
	}
}
