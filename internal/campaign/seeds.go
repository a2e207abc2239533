package campaign

// Historical-bug seed scenarios. These two schedules found (or
// minimally reproduce) real bugs in this repo's history; their
// encodings anchor the committed fuzz corpus so every campaign run
// starts from known-dangerous territory, and the attack regression
// suite replays them by name.

import (
	"repro/internal/sched"
)

// AdmitEarlyScenario is the minimized PR-4 admit-early schedule: two
// idle cores, one immediate request, one arriving 30M cycles later.
// The buggy scheduler admitted (and dispatched) the future request at
// cycle 0; the campaign's causality invariant — no admit/dispatch/
// complete decision before the request's own arrival — is exactly the
// detector for that class.
func AdmitEarlyScenario() Scenario {
	return Scenario{
		Seed: 4, Cores: 2, Tenants: 2, MaxBatch: 1,
		Requests: []sched.Request{
			{ID: 1, Tenant: "t0", Model: "mobilenet", Arrival: 0},
			{ID: 2, Tenant: "t1", Model: "mobilenet", Arrival: 30_000_000},
		},
	}
}

// DeadlineCutScenario reproduces the mid-run deadline-cut shape: a
// solo secure mobilenet finishes at cycle 12_833_386 on one core, so
// a deadline one cycle short passes admission (the compute floor
// fits) but must be cut deterministically at a tile boundary, with
// the §IV-B flush paid before the core is reused. The invariants
// assert the request drops (never completes past its deadline) and
// that the cut leaves no secure residue.
func DeadlineCutScenario() Scenario {
	return Scenario{
		Seed: 9, Cores: 1, Tenants: 1, MaxBatch: 1,
		Requests: []sched.Request{
			{ID: 1, Tenant: "t0", Model: "mobilenet", Secure: true, KeyID: "t0-key",
				Arrival: 0, Deadline: 12_833_385},
		},
	}
}

// HostileMonitorScenario pairs a small secure schedule with a
// trampoline call sequence aimed at the post-episode monitor: stale
// task ids for load/preempt/abort/unload, an unassigned function ID,
// and translation windows into both reserved and secure memory (odd
// A[2] selects a secure-region target, which must be refused).
func HostileMonitorScenario() Scenario {
	sc := Scenario{
		Seed: 17, Cores: 2, Tenants: 1, MaxBatch: 2,
		Requests: []sched.Request{
			{ID: 1, Tenant: "t0", Model: "yololite", Secure: true, KeyID: "t0-key"},
			{ID: 2, Tenant: "t0", Model: "mobilenet", Arrival: 1_000_000},
		},
		MonCalls: []MonCall{
			{Fn: 2, A: [3]byte{1, 0, 0}}, // FnLoad of a stale task id
			{Fn: 8, A: [3]byte{1, 0, 0}}, // FnPreempt, same
			{Fn: 7, A: [3]byte{3, 0, 0}}, // FnAbort of an unknown id
			{Fn: 5, A: [3]byte{0, 2, 5}}, // FnMapNonSecure, odd A[2]: secure target
			{Fn: 5, A: [3]byte{1, 3, 4}}, // FnMapNonSecure, even A[2]: reserved DRAM
			{Fn: 6, A: [3]byte{9, 9, 9}}, // unassigned function ID
		},
	}
	return sc
}

// ServeRejectedScenario is the minimized form of a fuzz-found
// crasher (input "10000000000000000000000000000"): a secure request
// whose deadline sits far below the solo compute floor is rejected at
// admission, and serve maps that terminal Rejected result to 400 —
// a legal outcome the campaign's first status allowlist missed. The
// seed pins both halves: the scheduler must reject (never run) the
// infeasible request, and the serve leg must surface it as 400, not
// a 5xx.
func ServeRejectedScenario() Scenario {
	return Scenario{
		Seed: 49, Cores: 1, Tenants: 1, MaxBatch: 1,
		Serve: ServeRun,
		Requests: []sched.Request{
			{ID: 1, Tenant: "t0", Model: "mobilenet", Secure: true, KeyID: "t0-key",
				Arrival: 0, Deadline: 1_000_000},
		},
	}
}

// KVResidencyScenario is the decode leg's anchor: a same-tenant decode
// pair that batches continuously on one core (the second request joins
// mid-stream at a token boundary), a third decode request on another
// tenant, and a higher-priority plain secure request that preempts the
// running batch while its KV window is resident. The invariants assert
// every completed decode request streams exactly Steps+1 strictly
// ordered tokens and that no KV window survives the episode.
func KVResidencyScenario() Scenario {
	specA := campaignDecodeSpec(0, 1) // tenant 0, 3 steps
	specB := campaignDecodeSpec(1, 2) // tenant 1, 4 steps
	return Scenario{
		Seed: 31, Cores: 1, Tenants: 2, MaxBatch: 2,
		Requests: []sched.Request{
			{ID: 1, Tenant: "t0", Secure: true, Decode: &specA},
			{ID: 2, Tenant: "t1", Secure: true, Decode: &specB, Arrival: 15_000},
			{ID: 3, Tenant: "t0", Secure: true, Decode: &specA, Arrival: 25_000},
			{ID: 4, Tenant: "t0", Model: "mobilenet", Secure: true, KeyID: "t0-key",
				Arrival: 40_000, Priority: 2},
		},
	}
}

// DecodeServeScenario replays a decode schedule through the HTTP
// daemon: decode requests travel as JSON decode params (no model, no
// sealed blob), and the result API must surface their token counts
// under the documented status mapping.
func DecodeServeScenario() Scenario {
	spec := campaignDecodeSpec(0, 0) // tenant 0, 2 steps
	return Scenario{
		Seed: 37, Cores: 2, Tenants: 1, MaxBatch: 2,
		Serve: ServeRun,
		Requests: []sched.Request{
			{ID: 1, Tenant: "t0", Secure: true, Decode: &spec},
			{ID: 2, Tenant: "t0", Secure: true, Decode: &spec, Arrival: 50_000},
		},
	}
}

// DrainRaceScenario runs the schedule, then replays it through a
// draining serve daemon: every submit must be refused 503 with a
// Retry-After hint, never half-admitted.
func DrainRaceScenario() Scenario {
	return Scenario{
		Seed: 23, Cores: 2, Tenants: 2, MaxBatch: 2, MaxQueuePerTenant: 2,
		Serve: ServeDrained,
		Requests: []sched.Request{
			{ID: 1, Tenant: "t0", Model: "mobilenet", Secure: true, KeyID: "t0-key"},
			{ID: 2, Tenant: "t1", Model: "yololite", Arrival: 500_000},
			{ID: 3, Tenant: "t0", Model: "yololite", Arrival: 600_000, Priority: 1},
		},
	}
}
