package snpu

import (
	"testing"

	"repro/internal/sched"
)

// TestFairnessCountsStarvedTenant pins that a tenant with results but
// no completions counts as 0 in Jain's index: t0 completes 2 requests
// and t1 has 2 dropped, so the index is 2²/(2·2²) = 0.5, not the 1.0 an
// index over completing tenants only would report.
func TestFairnessCountsStarvedTenant(t *testing.T) {
	ep := Episode{Report: &sched.Report{Results: []sched.Result{
		{ID: 1, Tenant: "t0", Completed: true},
		{ID: 2, Tenant: "t0", Completed: true},
		{ID: 3, Tenant: "t1", Dropped: true},
		{ID: 4, Tenant: "t1", Dropped: true},
	}}}
	if got := ep.Fairness(); got != 0.5 {
		t.Fatalf("fairness = %v, want 0.5", got)
	}
	if got := (Episode{Report: &sched.Report{}}).Fairness(); got != 0 {
		t.Fatalf("empty report fairness = %v, want 0", got)
	}
}
