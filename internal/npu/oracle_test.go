package npu_test

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// referenceOps is the op stream of w compiled for budget and layout,
// emitted the way Compile wrote every tile iteration out as ops: the
// emit loop kept as the oracle the compiled form must reproduce op for
// op.
func referenceOps(t testing.TB, w workload.Workload, cfg npu.Config, budget int, layout npu.Layout) []npu.Op {
	t.Helper()
	if budget <= 0 {
		budget = cfg.SpadBytes
	}
	dim := cfg.SystolicDim
	var tilings []workload.Tiling
	var weightTotal uint64
	for _, layer := range w.Layers {
		for _, g := range layer.GEMMs {
			tl, err := workload.ChooseTiling(g, budget, dim)
			if err != nil {
				t.Fatal(err)
			}
			tilings = append(tilings, tl)
			_, kc, nc := tl.Counts()
			weightTotal += uint64(kc * nc * tl.Kt * tl.Nt)
		}
	}
	actBase := layout.WeightBase + mem.VirtAddr(mem.PageAlignUp(mem.PhysAddr(weightTotal)))

	var ops []npu.Op
	emit := func(kind npu.OpKind, base mem.VirtAddr, rows, cols, strideCols, layer int, weight bool) {
		for r := 0; r < rows; r += dim {
			blockRows := min(dim, rows-r)
			ops = append(ops, npu.Op{
				Kind:   kind,
				VA:     base + mem.VirtAddr(r*strideCols),
				Bytes:  uint64(blockRows * cols * workload.ElemBytes),
				Layer:  layer,
				Weight: weight,
			})
		}
	}
	edge := func(total, tile, idx, count int) int {
		if idx == count-1 {
			return total - tile*(count-1)
		}
		return tile
	}
	ceil := func(a, b int) int { return (a + b - 1) / b }
	var weightOff, actOff uint64
	gi := 0
	for li, layer := range w.Layers {
		for _, g := range layer.GEMMs {
			tl := tilings[gi]
			gi++
			mc, kc, nc := tl.Counts()
			aPacked := uint64(mc * kc * tl.Mt * tl.Kt)
			bPacked := uint64(kc * nc * tl.Kt * tl.Nt)
			cPacked := uint64(mc * nc * tl.Mt * tl.Nt)
			aBase := actBase + mem.VirtAddr(actOff)
			bBase := layout.WeightBase + mem.VirtAddr(weightOff)
			cBase := aBase + mem.VirtAddr(aPacked)
			for mi := 0; mi < mc; mi++ {
				mt := edge(g.M, tl.Mt, mi, mc)
				for ni := 0; ni < nc; ni++ {
					nt := edge(g.N, tl.Nt, ni, nc)
					for ki := 0; ki < kc; ki++ {
						kt := edge(g.K, tl.Kt, ki, kc)
						emit(npu.OpLoad, aBase+mem.VirtAddr((mi*kc+ki)*(tl.Mt*tl.Kt)), mt, kt, tl.Kt, li, false)
						emit(npu.OpLoad, bBase+mem.VirtAddr((ki*nc+ni)*(tl.Kt*tl.Nt)), kt, nt, tl.Nt, li, true)
						passes := int64(ceil(mt, dim)) * int64(ceil(nt, dim))
						cycles := float64(passes*int64(kt+2*dim)) / g.Eff()
						ops = append(ops, npu.Op{
							Kind: npu.OpCompute, Cycles: sim.Cycle(cycles), Layer: li, Tile: true,
							MACs: int64(mt) * int64(kt) * int64(nt),
						})
					}
					emit(npu.OpStore, cBase+mem.VirtAddr((mi*nc+ni)*(tl.Mt*tl.Nt)), mt, nt, tl.Nt, li, false)
				}
			}
			weightOff += bPacked
			actOff += aPacked + cPacked
		}
	}
	return ops
}

// referenceStrip drops the DRAM traffic a model-parallel slice moves
// over the NoC instead: activation loads of every layer after the
// first and activation stores of every layer before the last.
func referenceStrip(ops []npu.Op, layers int) []npu.Op {
	var out []npu.Op
	for _, op := range ops {
		if op.Kind == npu.OpLoad && !op.Weight && op.Layer > 0 {
			continue
		}
		if op.Kind == npu.OpStore && !op.Weight && op.Layer < layers-1 {
			continue
		}
		out = append(out, op)
	}
	return out
}

// budgeted is a model compiled for a scratchpad budget.
type budgeted struct {
	model  string
	budget int
}

// fig15Budgets lists the programs Fig. 15 compiles: each pair's
// trusted model at every split of the scratchpad and its untrusted
// partner at the rest (internal/experiments/fig15.go).
func fig15Budgets(cfg npu.Config) []budgeted {
	var out []budgeted
	for _, pair := range [][2]string{{"alexnet", "yololite"}, {"bert", "mobilenet"}, {"resnet", "googlenet"}} {
		for _, split := range []float64{0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8} {
			a := int(float64(cfg.SpadBytes) * split)
			out = append(out, budgeted{pair[0], a}, budgeted{pair[1], cfg.SpadBytes - a})
		}
	}
	return out
}

// checkStream asserts that p's op stream is ref, op for op, and that p
// measures to the hash of ref's records.
func checkStream(t *testing.T, p *npu.Program, ref []npu.Op) {
	t.Helper()
	got := npu.ExpandOps(p)
	if len(got) != len(ref) {
		t.Fatalf("%s: %d ops, reference %d", p.Name, len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("%s: op %d is %+v, reference %+v", p.Name, i, got[i], ref[i])
		}
	}
	if n, err := npu.OpCount(p); err != nil || n != len(ref) {
		t.Fatalf("%s: Validate counts %d ops (%v), reference %d", p.Name, n, err, len(ref))
	}
	if m, want := p.Measurement(), referenceHash(p.Name, p.SourceDigest, ref); m != want {
		t.Fatalf("%s: Measurement %x, reference %x", p.Name, m, want)
	}
}

// The compiled form is the reference emit loop's stream for every
// built-in model, every decode pass, every program Fig. 15 compiles
// and the model-parallel slices, so no cycle, counter or measurement
// moves with the representation.
func TestStreamMatchesReference(t *testing.T) {
	cfg := npu.DefaultConfig()
	compile := func(t *testing.T, w workload.Workload, budget int, layout npu.Layout) {
		t.Helper()
		p, _, err := npu.Compile(w, cfg, budget, layout)
		if err != nil {
			t.Fatal(err)
		}
		checkStream(t, p, referenceOps(t, w, cfg, budget, layout))
	}
	layouts := []npu.Layout{npu.DefaultLayout, npu.CompanionLayout}
	var models []workload.Workload
	for _, name := range workload.Names() {
		w, err := workload.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, w)
	}
	t.Run("models", func(t *testing.T) {
		for _, w := range models {
			for _, layout := range layouts {
				compile(t, w, 0, layout)
			}
		}
	})
	t.Run("decode-passes", func(t *testing.T) {
		for _, w := range workload.DefaultDecodeSpec().Passes() {
			for _, layout := range layouts {
				compile(t, w, 0, layout)
			}
		}
	})
	t.Run("fig15-budgets", func(t *testing.T) {
		for _, c := range fig15Budgets(cfg) {
			w, err := workload.Lookup(c.model)
			if err != nil {
				t.Fatal(err)
			}
			compile(t, w, c.budget, npu.DefaultLayout)
		}
	})
	for _, parts := range []int{2, 4} {
		t.Run(fmt.Sprintf("stripped-%d-way", parts), func(t *testing.T) {
			for _, w := range models {
				progs, err := npu.StrippedSlices(w, cfg, parts)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range progs {
					slice := npu.SliceWorkload(w, i, parts, cfg.SystolicDim)
					checkStream(t, p, referenceStrip(referenceOps(t, slice, cfg, 0, npu.DefaultLayout), p.Layers))
				}
			}
		})
	}
}
