package main

import (
	"bytes"
	"fmt"

	"github.com/horse-faas/horse/internal/cluster"
)

// wantClaims is the number of paper claims VerifyClaims checks.
const wantClaims = 21

// checkInput is everything one run's output checks look at.
type checkInput struct {
	Report cluster.Report
	// JSON is Report rendered by WriteJSON.
	JSON []byte
	// LoadgenArrivals is the standalone generator's count for the same
	// seed, horizon, and start instant.
	LoadgenArrivals uint64
	// ReplayRejects is how many arrivals the tenant replay refused.
	ReplayRejects uint64
	// Same names reports that must be byte-identical to JSON (other
	// shard counts, the real body, the traced run, repeat runs).
	Same map[string][]byte
	// ClaimsPassed and ClaimsTotal are VerifyClaims' tally.
	ClaimsPassed, ClaimsTotal int
}

// check is one named output check and its verdict.
type check struct {
	Name string
	Err  error
}

// runChecks evaluates every output check; a nil Err is a pass.
func runChecks(in checkInput) []check {
	r := in.Report
	var out []check
	add := func(name string, err error) { out = append(out, check{name, err}) }
	eq := func(name string, got, want uint64) {
		var err error
		if got != want {
			err = fmt.Errorf("%d != %d", got, want)
		}
		add(name, err)
	}

	eq("conservation: arrivals == served+rejected+failed", r.Arrivals, r.Served+r.Rejected+r.Failed)
	var modes, nodes, rejects, failovers, slos uint64
	for _, m := range r.Modes {
		modes += m.Count
	}
	for _, n := range r.NodeSummaries {
		nodes += n.Served
	}
	for _, rc := range r.RejectionReasons {
		rejects += rc.Count
	}
	for _, fc := range r.FailoverReasons {
		failovers += fc.Count
	}
	for _, s := range r.SLOs {
		slos += s.Arrivals
	}
	eq("sum(modes.count) == served", modes, r.Served)
	eq("sum(node served) == served", nodes, r.Served)
	eq("sum(rejection_reasons) == rejected", rejects, r.Rejected)
	eq("sum(failover_reasons) == failovers", failovers, r.Failovers)
	eq("sum(slos.arrivals) == arrivals", slos, r.Arrivals)
	if len(r.Tenants) > 0 {
		var ta, ts uint64
		for _, t := range r.Tenants {
			ta += t.Arrivals
			ts += t.Served
		}
		eq("sum(tenant arrivals) == arrivals", ta, r.Arrivals)
		eq("sum(tenant served) == served", ts, r.Served)
	}
	eq("trace_reconcile_failures == 0", r.TraceReconcileFailures, 0)
	eq("arrivals == standalone loadgen count", r.Arrivals, in.LoadgenArrivals)
	eq("tenant replay rejects == admission rejects", in.ReplayRejects, reasonCount(r.RejectionReasons, "admission"))
	for _, name := range sortedKeys(in.Same) {
		var err error
		if !bytes.Equal(in.Same[name], in.JSON) {
			err = fmt.Errorf("report JSON differs (%d vs %d bytes)", len(in.Same[name]), len(in.JSON))
		}
		add("report identical to "+name, err)
	}
	var err error
	if in.ClaimsPassed != wantClaims || in.ClaimsTotal != wantClaims {
		err = fmt.Errorf("%d/%d claims hold, want %d/%d", in.ClaimsPassed, in.ClaimsTotal, wantClaims, wantClaims)
	}
	add("VerifyClaims holds 21/21", err)
	return out
}

func reasonCount(rs []cluster.ReasonCount, reason string) uint64 {
	for _, rc := range rs {
		if rc.Reason == reason {
			return rc.Count
		}
	}
	return 0
}
