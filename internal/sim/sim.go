// Package sim provides the simulation substrate every timed component
// in the sNPU reproduction builds on (the cycle accounting beneath
// every §VI figure): the cycle type, serialized resources with FIFO
// contention in virtual time, and the named statistics counters.
//
// There is no global event queue: each core keeps its own clock and
// components serialize on Resources, so repeated runs of the same
// configuration produce identical cycle counts.
package sim

// Cycle is a point on (or a span of) the simulated clock. The SoC in
// the paper runs at 1 GHz, so one Cycle is one nanosecond of simulated
// time under the default configuration.
type Cycle int64
