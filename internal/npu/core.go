package npu

import (
	"fmt"

	"repro/internal/dma"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spad"
	"repro/internal/tee"
	"repro/internal/xlate"
)

// pipeline is the core's execution-unit occupancy state: when the DMA
// load queue, the systolic array, and the store (write) buffer next
// free up. It is core state, not task state — time-shared tasks queue
// behind each other's in-flight work on the same units, which is
// exactly why ID-based isolation (share without draining) beats
// flushing (drain and scrub on every switch).
type pipeline struct {
	dmaFree     sim.Cycle
	computeFree sim.Cycle
	storeFree   sim.Cycle
	// prevComputeEnd gates load run-ahead to one tile (double buffer).
	prevComputeEnd [2]sim.Cycle
}

func (p *pipeline) clampTo(at sim.Cycle) {
	if p.dmaFree < at {
		p.dmaFree = at
	}
	if p.computeFree < at {
		p.computeFree = at
	}
	if p.storeFree < at {
		p.storeFree = at
	}
	if p.prevComputeEnd[0] < at {
		p.prevComputeEnd[0] = at
	}
	if p.prevComputeEnd[1] < at {
		p.prevComputeEnd[1] = at
	}
}

// Core is one accelerator tile: a systolic array, its scratchpads, a
// DMA engine behind an access-control unit, a NoC router controller,
// and the sNPU ID state that tags everything the core touches.
type Core struct {
	id     int
	coord  noc.Coord
	cfg    Config
	domain spad.DomainID
	sp     *spad.Scratchpad
	acc    *spad.Scratchpad
	dmaEng *dma.Engine
	router *noc.RouterController
	stats  *sim.Stats
	pipe   pipeline
	inj    *fault.Injector
	// Counter cells the executor increments per compute op, resolved
	// on each counter's first increment.
	ctrMACs, ctrComputeCycles *int64
	// xl0 is the translator the core booted with; Reset restores it so
	// a pooled tile sheds whatever mechanism (IOMMU, Guarder) the
	// previous experiment cell installed.
	xl0 xlate.Translator

	// Observability: the attached observer (nil = off) and the
	// pre-resolved compute-tile latency histogram the executor feeds.
	obs     *obs.Observer
	obsTile *obs.Histogram
}

// AttachInjector arms this tile with a fault injector: its
// scratchpads, its DMA engine, and its translator if the translator
// has fault sites of its own (the IOMMU's IOTLB does).
func (c *Core) AttachInjector(inj *fault.Injector) {
	c.inj = inj
	c.sp.AttachInjector(inj)
	c.acc.AttachInjector(inj)
	c.dmaEng.AttachInjector(inj)
	if a, ok := c.dmaEng.Translator().(interface{ AttachInjector(*fault.Injector) }); ok {
		a.AttachInjector(inj)
	}
}

// AttachObserver wires this tile into an observability layer: its DMA
// engine, its translator when the translator is instrumented (the
// IOMMU's walk histogram and spans), and an npu.tile.cycles histogram
// of compute-tile latency fed by the executor. Executors created after
// attachment record their compute tiles into the observer's timeline;
// the DMA engine records the loads and stores. Nil detaches.
func (c *Core) AttachObserver(o *obs.Observer) {
	c.obs = o
	c.obsTile = nil
	if o != nil {
		c.obsTile = o.Registry().Histogram("npu.tile.cycles")
	}
	c.dmaEng.AttachObserver(o, c.id)
	if a, ok := c.dmaEng.Translator().(interface{ AttachObserver(*obs.Observer) }); ok {
		a.AttachObserver(o)
	}
}

// Observer returns the tile's attached observability layer (nil = off).
func (c *Core) Observer() *obs.Observer { return c.obs }

// ResetPipeline returns the core's execution units to idle (the start
// of an independent measurement run).
func (c *Core) ResetPipeline() { c.pipe = pipeline{} }

// Reset power-cycles the tile for arena-style reuse: execution units
// idle, core ID state back to non-secure, both scratchpads scrubbed
// (payload, tags, valid bits, parity — the same guarantees §IV-B's
// flush strawman pays for at every context switch, here paid once per
// pool recycle), the boot translator restored in place of any
// installed mechanism, and fault injectors/observers detached.
func (c *Core) Reset() {
	c.pipe = pipeline{}
	c.domain = spad.NonSecure
	c.sp.Reset()
	c.acc.Reset()
	c.inj = nil
	c.dmaEng.AttachInjector(nil)
	if a, ok := c.dmaEng.Translator().(interface{ AttachInjector(*fault.Injector) }); ok {
		a.AttachInjector(nil)
	}
	c.dmaEng.SetTranslator(c.xl0)
	c.AttachObserver(nil)
}

// NewCore assembles one tile. The DMA engine shares the SoC's DRAM
// channel resource with every other core; the translator is swappable
// per experiment (none / IOMMU / Guarder).
func NewCore(id int, coord noc.Coord, cfg Config, channel *sim.Resource, phys *mem.Physical, xl xlate.Translator, mesh *noc.Mesh, stats *sim.Stats) (*Core, error) {
	sp, err := spad.New(spad.Config{
		Lines:     cfg.SpadLines(),
		LineBytes: cfg.SpadLineBytes,
		Kind:      spad.Exclusive,
		IDBits:    cfg.IDBits,
		Isolated:  cfg.Isolated,
		Parity:    cfg.Isolated,
	}, stats)
	if err != nil {
		return nil, err
	}
	acc, err := spad.New(spad.Config{
		Lines:     cfg.SpadBytes / 4 / cfg.AccLineBytes,
		LineBytes: cfg.AccLineBytes,
		Kind:      spad.Shared,
		IDBits:    cfg.IDBits,
		Isolated:  cfg.Isolated,
		Parity:    cfg.Isolated,
	}, stats)
	if err != nil {
		return nil, err
	}
	c := &Core{
		id:     id,
		coord:  coord,
		cfg:    cfg,
		sp:     sp,
		acc:    acc,
		dmaEng: dma.New(cfg.DMAConfig(), xl, channel, phys, stats),
		stats:  stats,
		xl0:    xl,
	}
	if mesh != nil {
		c.router = noc.NewRouterController(coord, mesh)
	}
	return c, nil
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// Coord returns the core's NoC coordinate.
func (c *Core) Coord() noc.Coord { return c.coord }

// Domain returns the core's current ID state.
func (c *Core) Domain() spad.DomainID { return c.domain }

// SetDomain is the secure instruction that flips a core between
// domains (§IV-B: "Setting the ID state of the NPU core can only be
// done through a secure instruction").
func (c *Core) SetDomain(ctx tee.Context, d spad.DomainID) error {
	if err := ctx.RequireSecure(); err != nil {
		return err
	}
	if c.cfg.IDBits < 8 && d >= 1<<c.cfg.IDBits {
		return fmt.Errorf("npu: domain %d exceeds %d-bit core ID state", d, c.cfg.IDBits)
	}
	c.domain = d
	return nil
}

// Scratchpad exposes the core-local (exclusive) scratchpad.
func (c *Core) Scratchpad() *spad.Scratchpad { return c.sp }

// Accumulator exposes the shared accumulator scratchpad.
func (c *Core) Accumulator() *spad.Scratchpad { return c.acc }

// DMA exposes the core's DMA engine.
func (c *Core) DMA() *dma.Engine { return c.dmaEng }

// Router exposes the core's NoC router controller (nil when the core
// is not attached to a mesh).
func (c *Core) Router() *noc.RouterController { return c.router }

// World maps the core's domain onto the hardware world its DMA
// requests are issued in.
func (c *Core) World() mem.World {
	if c.domain == spad.NonSecure {
		return mem.Normal
	}
	return mem.Secure
}
