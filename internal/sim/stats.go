package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Stats is a named-counter sink shared across components. Counters are
// created on first use; reads of unknown counters return zero. It is
// not safe for concurrent use — each simulated SoC is single-threaded
// (parallel experiment cells each own a private Stats).
//
// Counters are stored behind stable *int64 cells so hot components can
// resolve a name once and increment through the pointer, skipping the
// per-event map lookup (AddCell). Reset zeroes the cells in place,
// keeping outstanding handles valid.
type Stats struct {
	counters map[string]*int64
	// resolves counts name-to-cell map resolutions (every Counter
	// call), so tests can assert the per-op paths stay off the map.
	resolves int64
}

// NewStats returns an empty counter set.
func NewStats() *Stats {
	return &Stats{counters: make(map[string]*int64)}
}

// Counter returns the stable cell for name, creating it at zero on
// first use. The pointer stays valid across Reset (which zeroes it),
// so components may cache it for the lifetime of the Stats.
func (s *Stats) Counter(name string) *int64 {
	s.resolves++
	if c, ok := s.counters[name]; ok {
		return c
	}
	c := new(int64)
	s.counters[name] = c
	return c
}

// Add increments counter name by delta. A nil Stats ignores the call,
// as AddCell does, so a component built without a counter sink counts
// unconditionally.
func (s *Stats) Add(name string, delta int64) {
	if s != nil {
		*s.Counter(name) += delta
	}
}

// Inc increments counter name by one (nil-safe, like Add).
func (s *Stats) Inc(name string) { s.Add(name, 1) }

// AddCell increments counter name by delta through *cell, a handle the
// caller keeps in one of its fields: the first call resolves the name
// and stores the cell there, later calls skip the map. The counter is
// created on that first call, as Add would create it, so Names and
// Snapshot list exactly the counters some increment touched. Cache a
// cell only in a component whose Stats is fixed at construction. A nil
// Stats ignores the call.
func (s *Stats) AddCell(cell **int64, name string, delta int64) {
	if s == nil {
		return
	}
	c := *cell
	if c == nil {
		c = s.Counter(name)
		*cell = c
	}
	*c += delta
}

// Get reads counter name, zero if never written.
func (s *Stats) Get(name string) int64 {
	if c, ok := s.counters[name]; ok {
		return *c
	}
	return 0
}

// Set overwrites counter name.
func (s *Stats) Set(name string, v int64) { *s.Counter(name) = v }

// Reset zeroes every counter in place; handles returned by Counter
// remain valid and read zero afterwards.
func (s *Stats) Reset() {
	for _, c := range s.counters {
		*c = 0
	}
}

// Names returns the sorted counter names.
func (s *Stats) Names() []string {
	names := make([]string, 0, len(s.counters))
	for k := range s.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Snapshot copies all counters.
func (s *Stats) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(s.counters))
	for k, v := range s.counters {
		out[k] = *v
	}
	return out
}

// String renders the counters one per line, sorted by name.
func (s *Stats) String() string {
	var b strings.Builder
	for _, name := range s.Names() {
		fmt.Fprintf(&b, "%s=%d\n", name, s.Get(name))
	}
	return b.String()
}

// Common counter names used across the simulator. Keeping them here
// avoids typo'd string literals scattering through components.
const (
	CtrDMARequests      = "dma.requests"
	CtrDMAPackets       = "dma.packets"
	CtrDMABytes         = "dma.bytes"
	CtrIOTLBLookups     = "iotlb.lookups"
	CtrIOTLBHits        = "iotlb.hits"
	CtrIOTLBMisses      = "iotlb.misses"
	CtrIOTLBFlushes     = "iotlb.flushes"
	CtrPageWalks        = "iommu.pagewalks"
	CtrPageWalkCycles   = "iommu.pagewalk_cycles"
	CtrGuarderChecks    = "guarder.checks"
	CtrGuarderDenied    = "guarder.denied"
	CtrSpadReads        = "spad.reads"
	CtrSpadWrites       = "spad.writes"
	CtrSpadDenied       = "spad.denied"
	CtrSpadFlushBytes   = "spad.flush_bytes"
	CtrNoCPackets       = "noc.packets"
	CtrNoCFlits         = "noc.flits"
	CtrNoCAuthPass      = "noc.auth_pass"
	CtrNoCAuthFail      = "noc.auth_fail"
	CtrComputeCycles    = "npu.compute_cycles"
	CtrComputeMACs      = "npu.macs"
	CtrMonitorCalls     = "monitor.calls"
	CtrMonitorRejected  = "monitor.rejected"
	CtrMonitorPreempts  = "monitor.preempt.count"
	CtrCtxSwitches      = "driver.ctx_switches"
	CtrTranslations     = "xlate.requests"
	CtrTranslationStall = "xlate.stall_cycles"

	// Fault injection, detection, and recovery.
	CtrFaultsInjected    = "fault.injected"
	CtrECCCorrected      = "mem.ecc_corrected"
	CtrECCUncorrectable  = "mem.ecc_uncorrectable"
	CtrSpadParityErrors  = "spad.parity_errors"
	CtrIOTLBParityErrors = "iotlb.parity_errors"
	CtrNoCCRCFail        = "noc.crc_fail"
	CtrNoCDrops          = "noc.drops"
	CtrNoCRetries        = "noc.retries"
	CtrNoCReroutes       = "noc.reroutes"
	CtrNoCLinksDown      = "noc.links_down"
	CtrDMATimeouts       = "dma.timeouts"
	CtrDMARetries        = "dma.retries"
	CtrCoreHangs         = "npu.core_hangs"
	CtrMonitorAborts     = "monitor.aborts"
	CtrTaskRestarts      = "recovery.task_restarts"
	CtrRecoveredFaults   = "recovery.recovered"
	CtrUnrecoveredFaults = "recovery.unrecovered"

	// Scheduler and serve-daemon decisions.
	CtrSchedDispatches     = "sched.dispatch.count"
	CtrSchedPreempts       = "sched.preempt.count"
	CtrSchedCompletions    = "sched.complete.count"
	CtrSchedRejects        = "sched.reject.count"
	CtrSchedAborts         = "sched.abort.count"
	CtrSchedBatches        = "sched.batch.count"
	CtrSchedRetries        = "sched.retry"
	CtrSchedDeadlineMisses = "sched.deadline_miss"
	CtrServeShed           = "serve.shed"
)

// CanonicalCounters lists every named counter above, one per
// instrumentation site, in declaration order. The observability layer
// materializes them all at enable time so a metrics dump always
// covers the full component namespace (noc.*, dma.*, npu.*, iotlb.*,
// monitor.*, sched.*, ...), with zeros for sites the run never touched.
func CanonicalCounters() []string {
	return []string{
		CtrDMARequests, CtrDMAPackets, CtrDMABytes,
		CtrIOTLBLookups, CtrIOTLBHits, CtrIOTLBMisses, CtrIOTLBFlushes,
		CtrPageWalks, CtrPageWalkCycles,
		CtrGuarderChecks, CtrGuarderDenied,
		CtrSpadReads, CtrSpadWrites, CtrSpadDenied, CtrSpadFlushBytes,
		CtrNoCPackets, CtrNoCFlits, CtrNoCAuthPass, CtrNoCAuthFail,
		CtrComputeCycles, CtrComputeMACs,
		CtrMonitorCalls, CtrMonitorRejected, CtrMonitorPreempts,
		CtrCtxSwitches,
		CtrTranslations, CtrTranslationStall,
		CtrFaultsInjected,
		CtrECCCorrected, CtrECCUncorrectable,
		CtrSpadParityErrors, CtrIOTLBParityErrors,
		CtrNoCCRCFail, CtrNoCDrops, CtrNoCRetries, CtrNoCReroutes, CtrNoCLinksDown,
		CtrDMATimeouts, CtrDMARetries,
		CtrCoreHangs,
		CtrMonitorAborts,
		CtrTaskRestarts, CtrRecoveredFaults, CtrUnrecoveredFaults,
		CtrSchedDispatches, CtrSchedPreempts, CtrSchedCompletions, CtrSchedRejects,
		CtrSchedAborts, CtrSchedBatches, CtrSchedRetries, CtrSchedDeadlineMisses,
		CtrServeShed,
	}
}
