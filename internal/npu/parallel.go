package npu

import (
	"fmt"
	"slices"

	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file implements the Fig. 17 execution mode: model-parallel
// multi-core inference. Each layer's output channels are partitioned
// across the participating cores; after every layer the cores exchange
// their activation slices (every core needs the full activation as the
// next layer's input). The exchange rides either the direct NoC or the
// "software NoC" (a permission-restricted shared-memory buffer), which
// is exactly the comparison the paper's Fig. 17 makes.

// ModelParallelResult reports one multi-core run.
type ModelParallelResult struct {
	TotalCycles    sim.Cycle
	TransferCycles sim.Cycle
	Layers         int
}

// sliceWorkload builds core `part` of `parts`' share of w: every GEMM
// keeps M and K but computes only its slice of N (rounded to the
// systolic dimension so slices stay array-friendly).
func sliceWorkload(w workload.Workload, part, parts, dim int) workload.Workload {
	out := workload.Workload{Name: fmt.Sprintf("%s-p%d", w.Name, part)}
	for _, l := range w.Layers {
		var gs []workload.GEMM
		for _, g := range l.GEMMs {
			n := sliceOfN(g.N, part, parts, dim)
			if n == 0 {
				// Tiny layers still need a presence on every core so the
				// layer structure (and exchange points) stays aligned.
				n = 1
			}
			gs = append(gs, workload.GEMM{
				Name: g.Name, M: g.M, K: g.K, N: n, Efficiency: g.Efficiency,
			})
		}
		out.Layers = append(out.Layers, workload.Layer{Name: l.Name, GEMMs: gs})
	}
	return out
}

// sliceOfN splits N into `parts` dim-aligned chunks; earlier parts get
// the remainder.
func sliceOfN(n, part, parts, dim int) int {
	blocks := (n + dim - 1) / dim
	per := blocks / parts
	extra := blocks % parts
	b := per
	if part < extra {
		b++
	}
	s := b * dim
	// The final slice may exceed the true remainder; clamp the total.
	used := 0
	for p := 0; p < part; p++ {
		pb := per
		if p < extra {
			pb++
		}
		used += pb * dim
	}
	if used >= n {
		return 0
	}
	if used+s > n {
		s = n - used
	}
	return s
}

// stripOnChipActivations drops the DRAM traffic that the NoC carries
// instead in the model-parallel mapping: activation loads of every
// layer after the first (inputs arrive over the exchange and sit in
// the scratchpad) and activation stores of every layer before the last
// (outputs leave over the exchange). Weight loads always stream from
// DRAM. p is a compiled program, possibly shared through the compile
// cache, so the flags go on a copy of its nests.
func stripOnChipActivations(p *Program) *Program {
	out := *p
	out.Nests = slices.Clone(p.Nests)
	for i := range out.Nests {
		n := &out.Nests[i]
		n.OnChipIn = n.OnChipIn || n.Layer > 0
		n.OnChipOut = n.OnChipOut || n.Layer < p.Layers-1
	}
	return &out
}

// layerOutBytes is the activation volume a core's slice of a layer
// produces (what it must send to every peer).
func layerOutBytes(l workload.Layer) uint64 {
	var total uint64
	for _, g := range l.GEMMs {
		total += uint64(g.OutputBytes())
	}
	return total
}

// SharedMemVA is the software NoC's shared-memory bounce buffer
// (TransferSharedMemory): an unprotected system identity-translates it
// into the normal region, and a protected one maps it through the
// Guarder onto NPU-reserved memory.
const SharedMemVA = mem.VirtAddr(0x8100_0000)

// MapWindow installs access-control state for one core's compiled
// slice before a model-parallel run: on a protected system the
// monitor's context setter programs the core's Guarder; unprotected
// systems pass nil.
type MapWindow func(coreID int, prog *Program) error

// RunModelParallel executes one inference of w split across the given
// cores, exchanging activation slices after every layer per mode (the
// software NoC bounces them through SharedMemVA); mapWindow (optional)
// installs each core's translation window before execution.
func (n *NPU) RunModelParallel(w workload.Workload, coreIDs []int, mode TransferMode, mapWindow MapWindow) (ModelParallelResult, error) {
	parts := len(coreIDs)
	if parts == 0 {
		return ModelParallelResult{}, fmt.Errorf("npu: no cores for model-parallel run")
	}
	if err := n.validateCores(coreIDs); err != nil {
		return ModelParallelResult{}, err
	}
	dim := n.cfg.SystolicDim
	cores := make([]*Core, parts)
	execs := make([]*Exec, parts)
	slices := make([]workload.Workload, parts)
	for i, ci := range coreIDs {
		c, err := n.Core(ci)
		if err != nil {
			return ModelParallelResult{}, err
		}
		cores[i] = c
		slices[i] = sliceWorkload(w, i, parts, dim)
		prog, _, err := CompileCached(slices[i], n.cfg, 0, DefaultLayout)
		if err != nil {
			return ModelParallelResult{}, err
		}
		stripped := stripOnChipActivations(prog)
		if mapWindow != nil {
			if err := mapWindow(ci, stripped); err != nil {
				return ModelParallelResult{}, err
			}
		}
		execs[i] = NewExec(c, stripped, 2000+ci)
	}

	var res ModelParallelResult
	res.Layers = len(w.Layers)
	start := sim.Cycle(0)
	now := make([]sim.Cycle, parts)
	for li := 0; li < len(w.Layers); li++ {
		// Each core computes its slice of the layer, interleaved with
		// the others tile by tile.
		for i := range now {
			now[i] = start
		}
		if err := Interleave(execs, now, func(e *Exec) bool { return e.CurrentLayer() == li }); err != nil {
			return ModelParallelResult{}, err
		}
		var layerEnd sim.Cycle = start
		for i := range now {
			if now[i] > layerEnd {
				layerEnd = now[i]
			}
		}
		// All-gather the activation slices (skip after the last layer —
		// the final output stays wherever the classifier ran).
		if li == len(w.Layers)-1 {
			start = layerEnd
			break
		}
		exchangeDone := layerEnd
		for i := range cores {
			bytes := layerOutBytes(slices[i].Layers[li])
			if bytes == 0 {
				continue
			}
			done, err := n.allGatherFrom(cores, i, bytes, mode, layerEnd)
			if err != nil {
				return ModelParallelResult{}, err
			}
			if done > exchangeDone {
				exchangeDone = done
			}
		}
		res.TransferCycles += exchangeDone - layerEnd
		start = exchangeDone
	}
	res.TotalCycles = start
	return res, nil
}

// ExchangeTxnLines is the streaming-transaction size of an inter-core
// exchange: consumers compute on activation tiles as they arrive, so
// slices move in bursts of this many scratchpad lines (1 KB), not as
// one bulk copy. The direct NoC pays per-hop latency per burst; the
// software NoC pays a DRAM round trip per burst — that latency gap is
// Fig. 16's small-transaction regime, and it is what the application
// test (Fig. 17) aggregates.
const ExchangeTxnLines = 64

// allGatherFrom broadcasts core src's slice to every peer in
// streaming transactions.
func (n *NPU) allGatherFrom(cores []*Core, src int, bytes uint64, mode TransferMode, at sim.Cycle) (sim.Cycle, error) {
	s := cores[src]
	txnBytes := uint64(ExchangeTxnLines * noc.FlitBytes)
	var last sim.Cycle = at
	switch mode {
	case TransferNoC:
		for j, d := range cores {
			if j == src {
				continue
			}
			t := at
			for off := uint64(0); off < bytes; off += txnBytes {
				b := txnBytes
				if off+b > bytes {
					b = bytes - off
				}
				flits := int((b + noc.FlitBytes - 1) / noc.FlitBytes)
				done, err := s.router.Transfer(d.coord, flits, nil, t)
				if err != nil {
					return 0, err
				}
				t = done
			}
			if t > last {
				last = t
			}
		}
	case TransferSharedMemory:
		// Each burst bounces through the shared DRAM buffer: one store
		// by the producer, one load per consumer, every one paying the
		// DRAM access latency on the shared channel.
		t := at
		for off := uint64(0); off < bytes; off += txnBytes {
			b := txnBytes
			if off+b > bytes {
				b = bytes - off
			}
			storeDone, err := s.dmaEng.DoPipelined(storeLoad(SharedMemVA+mem.VirtAddr(off), b, true, s), nil, s.domain, t)
			if err != nil {
				return 0, err
			}
			burstDone := storeDone
			for j, d := range cores {
				if j == src {
					continue
				}
				done, err := d.dmaEng.DoPipelined(storeLoad(SharedMemVA+mem.VirtAddr(off), b, false, d), nil, d.domain, storeDone)
				if err != nil {
					return 0, err
				}
				if done > burstDone {
					burstDone = done
				}
			}
			t = burstDone
		}
		last = t
	default:
		return 0, fmt.Errorf("npu: unknown transfer mode %d", mode)
	}
	return last, nil
}
