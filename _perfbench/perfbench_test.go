package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/horse-faas/horse/internal/cluster"
	"github.com/horse-faas/horse/internal/simtime"
)

// consistentInput is a hand-built report that passes every check.
func consistentInput() checkInput {
	r := cluster.Report{
		Arrivals: 10, Served: 6, Rejected: 3, Failed: 1,
		RejectionReasons: []cluster.ReasonCount{{Reason: "admission", Count: 2}, {Reason: "no-nodes", Count: 1}},
		Failovers:        2,
		FailoverReasons:  []cluster.ReasonCount{{Reason: cluster.ReasonNodeFailed, Count: 2}},
		Modes:            []cluster.ModeLatency{{Mode: "horse", Count: 4}, {Mode: "warm", Count: 2}},
		NodeSummaries:    []cluster.NodeSummary{{Node: "node00", Served: 5}, {Node: "node01", Served: 1}},
		SLOs:             []cluster.SLOSummary{{Function: "nat", Arrivals: 7}, {Function: "scan", Arrivals: 3}},
		Tenants: []cluster.TenantSummary{
			{Tenant: "a", Arrivals: 7, Served: 5},
			{Tenant: "b", Arrivals: 3, Served: 1},
		},
	}
	js, err := reportJSON(r)
	if err != nil {
		panic(err)
	}
	return checkInput{
		Report:          r,
		JSON:            js,
		LoadgenArrivals: 10,
		ReplayRejects:   2,
		Same:            map[string][]byte{"reference": append([]byte(nil), js...)},
		ClaimsPassed:    wantClaims,
		ClaimsTotal:     wantClaims,
	}
}

func failing(checks []check) []string {
	var out []string
	for _, c := range checks {
		if c.Err != nil {
			out = append(out, c.Name)
		}
	}
	return out
}

// TestChecksFire doctors a consistent report one way at a time and
// expects the check guarding that property to fail.
func TestChecksFire(t *testing.T) {
	if got := failing(runChecks(consistentInput())); len(got) > 0 {
		t.Fatalf("consistent input fails %v", got)
	}
	cases := []struct {
		check  string
		doctor func(in *checkInput)
	}{
		{"conservation: arrivals == served+rejected+failed", func(in *checkInput) { in.Report.Failed++ }},
		{"sum(modes.count) == served", func(in *checkInput) { in.Report.Modes[0].Count++ }},
		{"sum(node served) == served", func(in *checkInput) { in.Report.NodeSummaries[1].Served = 0 }},
		{"sum(rejection_reasons) == rejected", func(in *checkInput) { in.Report.RejectionReasons[1].Count++ }},
		{"sum(failover_reasons) == failovers", func(in *checkInput) { in.Report.Failovers++ }},
		{"sum(slos.arrivals) == arrivals", func(in *checkInput) { in.Report.SLOs[0].Arrivals-- }},
		{"sum(tenant arrivals) == arrivals", func(in *checkInput) { in.Report.Tenants[0].Arrivals++ }},
		{"sum(tenant served) == served", func(in *checkInput) { in.Report.Tenants[1].Served++ }},
		{"trace_reconcile_failures == 0", func(in *checkInput) { in.Report.TraceReconcileFailures = 1 }},
		{"arrivals == standalone loadgen count", func(in *checkInput) { in.LoadgenArrivals++ }},
		{"tenant replay rejects == admission rejects", func(in *checkInput) { in.ReplayRejects-- }},
		{"report identical to reference", func(in *checkInput) { in.Same["reference"][2] ^= 1 }},
		{"VerifyClaims holds 21/21", func(in *checkInput) { in.ClaimsPassed-- }},
		{"VerifyClaims holds 21/21", func(in *checkInput) { in.ClaimsPassed, in.ClaimsTotal = 20, 20 }},
	}
	for _, tc := range cases {
		in := consistentInput()
		tc.doctor(&in)
		got := failing(runChecks(in))
		found := false
		for _, name := range got {
			found = found || name == tc.check
		}
		if !found {
			t.Errorf("doctoring for %q: failing checks %v do not include it", tc.check, got)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test reads.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// tinyHorizon shrinks a workload to a few thousand arrivals.
var tinyHorizon = map[string]simtime.Duration{
	"null-flood":   3 * simtime.Millisecond,
	"wide-mix":     3 * simtime.Millisecond,
	"tenant-storm": 50 * simtime.Millisecond,
}

// TestSmoke runs every workload BENCHMARK.json names at a tiny horizon
// in both modes: every check must pass and every metric the file
// declares must be printed with its unit.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(shapes) {
		t.Errorf("BENCHMARK.json names %d workloads, perfbench has %d", len(bf.Workloads), len(shapes))
	}
	for _, w := range bf.Workloads {
		s, err := lookupShape(w.Name)
		if err != nil {
			t.Error(err)
			continue
		}
		if s.Why != w.Why {
			t.Errorf("%s: why differs:\n BENCHMARK.json %q\n perfbench      %q", w.Name, w.Why, s.Why)
		}
		s.Horizon = tinyHorizon[s.Name]
		for trace, want := range [][]struct{ Name, Unit string }{bf.EndToEnd, bf.PerLayer} {
			var stdout, stderr bytes.Buffer
			o := options{seconds: 0.01, minIters: 1, rung: time.Millisecond}
			if code := report(&stdout, &stderr, s, 7, trace, o); code != 0 {
				t.Errorf("%s trace=%d: exit %d\nstdout:\n%s\nstderr:\n%s", s.Name, trace, code, stdout.String(), stderr.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed uint64
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Errorf("%s trace=%d: last line is not the result: %v", s.Name, trace, err)
				continue
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%d: result %+v", s.Name, trace, res)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics printed, BENCHMARK.json declares %d", s.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v (present %v), want unit %s", s.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}
