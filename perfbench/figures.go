package main

import (
	"fmt"
	"math/rand"

	snpu "repro"
	"repro/internal/experiments"
	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// figureModels is the stated model subset Figs. 13, 14 and 17 run on.
// Table I runs its own models (alexnet, and all six in the Fig. 15
// scratchpad-budget sweeps).
var figureModels = []string{"yololite", "mobilenet"}

// figureOp is one call into experiments: a figure on one model, or
// Table I (model "").
type figureOp struct{ fig, model string }

// figureRound lists one round: Figs. 13, 14 and 17 on every subset
// model. Fig. 17 calls take about a third and Fig. 14 calls about two
// thirds of a Fig. 13 call, so with two models p50 falls in the middle
// of the Fig. 14 cluster and p90 in the Fig. 13 one.
func figureRound() []figureOp {
	var ops []figureOp
	for _, fig := range []string{"fig13", "fig14", "fig17"} {
		for _, m := range figureModels {
			ops = append(ops, figureOp{fig, m})
		}
	}
	return ops
}

// figureSequence returns round r of a seed, shuffled by its own seeded
// RNG. Round 0 also holds Table I, so every phase runs it once.
func figureSequence(seed int64, r int) []figureOp {
	ops := figureRound()
	if r == 0 {
		ops = append(ops, figureOp{fig: "table1"})
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(r)))
	rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
	return ops
}

// figureOpAt maps operation i onto its round and slot.
func figureOpAt(seed int64, i int) figureOp {
	n0 := len(figureRound()) + 1
	if i < n0 {
		return figureSequence(seed, 0)[i]
	}
	per := len(figureRound())
	return figureSequence(seed, 1+(i-n0)/per)[(i-n0)%per]
}

// figures is the paper's evaluation through experiments at one worker.
type figures struct {
	seed int64
	cfg  npu.Config
}

func newFigures(seed int64) *figures { return &figures{seed: seed, cfg: npu.DefaultConfig()} }

// prefix covers round 0 and fifteen more rounds: the same calls for
// every seed.
func (f *figures) prefix() int { return len(figureRound())*16 + 1 }

// roundEnd: round 0 holds one more call (Table I) than the rest.
func (f *figures) roundEnd(n int) bool { return n >= 1 && (n-1)%len(figureRound()) == 0 }

// setup is the cold first pass every snpu-bench invocation pays: round
// 0 of the sequence, Table I included.
func (f *figures) setup() error {
	experiments.SetWorkers(1)
	for _, op := range figureSequence(f.seed, 0) {
		if _, err := f.call(op, nil); err != nil {
			return err
		}
	}
	return nil
}

func (f *figures) do(i int, tr *tracer) (outcome, error) {
	return f.call(figureOpAt(f.seed, i), tr)
}

// call runs one figure and checks the paper's shape claims on it.
func (f *figures) call(op figureOp, tr *tracer) (outcome, error) {
	var ws []workload.Workload
	if op.model != "" {
		w, err := workload.Lookup(op.model)
		if err != nil {
			return outcome{}, err
		}
		ws = []workload.Workload{w}
	}
	out := outcome{}
	fail := func(format string, args ...any) {
		out.violations = append(out.violations, fmt.Sprintf(format, args...))
	}
	addRow := func(c sim.Cycle) {
		out.simLatency = append(out.simLatency, float64(c))
		out.simTime += float64(c)
		out.simUnits++
	}
	cells := experiments.CellsRun()
	sp := tr.start("experiments." + op.fig)
	var table string
	switch op.fig {
	case "fig13":
		res, err := experiments.Fig13(ws, f.cfg)
		tr.stop(sp)
		if err != nil {
			return out, err
		}
		table = res.TableA() + res.TableB()
		byMech := map[string]sim.Cycle{}
		for _, r := range res.Rows {
			byMech[r.Mechanism] = r.Cycles
			addRow(r.Cycles)
		}
		if byMech["guarder"] != byMech["none"] {
			fail("fig13 %s: guarder %d cycles, unprotected %d", op.model, byMech["guarder"], byMech["none"])
		}
		for _, r := range res.Rows {
			if r.Mechanism != "none" && r.Mechanism != "guarder" && r.Cycles <= byMech["none"] {
				fail("fig13 %s: %s %d cycles is not slower than unprotected %d", op.model, r.Mechanism, r.Cycles, byMech["none"])
			}
		}
	case "fig14":
		res, err := experiments.Fig14(ws, f.cfg)
		tr.stop(sp)
		if err != nil {
			return out, err
		}
		table = res.TableString()
		for _, r := range res.Rows {
			addRow(r.Cycles)
		}
	case "fig17":
		res, err := experiments.Fig17(ws, f.cfg)
		tr.stop(sp)
		if err != nil {
			return out, err
		}
		table = res.TableString()
		byMethod := map[string]sim.Cycle{}
		for _, r := range res.Rows {
			byMethod[r.Method] = r.Cycles
			addRow(r.Cycles)
		}
		if byMethod["peephole-noc"] != byMethod["unauthorized-noc"] {
			fail("fig17 %s: peephole NoC %d cycles, unauthenticated %d", op.model, byMethod["peephole-noc"], byMethod["unauthorized-noc"])
		}
		if byMethod["software-noc"] <= byMethod["unauthorized-noc"] {
			fail("fig17 %s: software NoC %d cycles is not slower than %d", op.model, byMethod["software-noc"], byMethod["unauthorized-noc"])
		}
	case "table1":
		res, err := experiments.Table1(f.cfg)
		tr.stop(sp)
		if err != nil {
			return out, err
		}
		table = res.TableString()
	default:
		tr.stop(sp)
		return out, fmt.Errorf("unknown figure %q", op.fig)
	}
	out.units = int(experiments.CellsRun() - cells)
	out.requests = out.units
	out.traffic = map[string]int{op.fig: out.units}
	out.output = []byte(op.fig + " " + op.model + "\n" + table)
	return out, nil
}

func (f *figures) counters() map[string]float64 {
	hits, misses := experiments.PoolCounters()
	return withCompileCache(map[string]float64{
		"experiments.pool_hits":   float64(hits),
		"experiments.pool_misses": float64(misses),
	})
}

// probe reads the iommu, spad and noc counters for one round over the
// model subset. The figures' own SoCs zero their sim.Stats when a cell
// releases its SoC, so the counts come from the same kinds of cell run
// through exported entry points: every Fig. 13 cell through
// experiments.RunContended (which returns its stats), the Fig. 14
// time-share at each flush granularity through System.TimeShare, and
// the Fig. 17 NoC transfer through System.RunModelParallel.
func (f *figures) probe() (map[string]float64, error) {
	var lookups, walks, dmaReqs, xlates float64
	for _, m := range figureModels {
		w, err := workload.Lookup(m)
		if err != nil {
			return nil, err
		}
		for _, mech := range experiments.Fig13Mechanisms() {
			_, st, err := experiments.RunContended(w, mech, f.cfg)
			if err != nil {
				return nil, err
			}
			lookups += float64(st[sim.CtrIOTLBLookups])
			walks += float64(st[sim.CtrPageWalks])
			dmaReqs += float64(st[sim.CtrDMARequests])
			xlates += float64(st[sim.CtrTranslations])
		}
	}
	sys, err := snpu.New(snpu.BaselineConfig())
	if err != nil {
		return nil, err
	}
	for _, m := range figureModels {
		for _, gran := range []snpu.FlushGranularity{snpu.FlushPerTile, snpu.FlushPerLayer, snpu.FlushPer5Layers} {
			if _, err := sys.TimeShare(m, m, gran, true); err != nil {
				return nil, err
			}
		}
		if _, err := sys.RunModelParallel(m, []int{0, 1, 5, 6}, snpu.TransferNoC); err != nil {
			return nil, err
		}
	}
	st := sys.Stats()
	out := map[string]float64{
		"iommu.pagewalks":  walks,
		"spad.flush_bytes": float64(st.Get(sim.CtrSpadFlushBytes)),
		"noc.flits":        float64(st.Get(sim.CtrNoCFlits)),
		"dma.requests":     dmaReqs + float64(st.Get(sim.CtrDMARequests)),
		"xlate.requests":   xlates + float64(st.Get(sim.CtrTranslations)),
	}
	if lookups > 0 {
		// Every IOTLB miss is one page walk.
		out["iommu.iotlb_hit_ratio"] = 1 - walks/lookups
	}
	return out, nil
}
