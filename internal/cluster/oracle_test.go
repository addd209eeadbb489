package cluster

import (
	"errors"
	"reflect"
	"testing"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/faultinject"
	"github.com/horse-faas/horse/internal/loadgen"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/tenant"
	"github.com/horse-faas/horse/internal/trigtrace"
)

// oracleOutcome is what the sequential oracle compares: the per-stage
// latency attribution of every trace, where each node served, and the
// cluster's terminal tallies.
type oracleOutcome struct {
	attribution []trigtrace.StageLatency
	served      []uint64
	rejected    uint64
	failed      uint64
	failovers   map[string]uint64
}

// TestRunEqualsSequentialTrigger is the sequential oracle for the
// conservative-PDES run loop (DESIGN.md §13): with a one-microsecond
// sync quantum, Run must compute exactly what a caller gets by
// replaying the same arrivals one Trigger at a time, each at its own
// arrival instant — the same placements, failovers, admission verdicts,
// fault draws, and per-stage trace latencies. Each case is built twice
// from identical options, so the two clusters differ only in the path
// the arrivals take.
func TestRunEqualsSequentialTrigger(t *testing.T) {
	const (
		seed    = 42
		horizon = 100 * simtime.Millisecond
		budget  = 1500 * simtime.Nanosecond
	)
	cases := []struct {
		name     string
		faults   string
		tenants  string
		ullRate  float64
		workload string
	}{
		{
			name:     "faults",
			faults:   "cluster.node.fail:nth=20,cluster.node.drain:nth=60,resume:rate=0.05,invoke:every=37",
			workload: "scan=poisson:rate=2000/s,mode=horse",
		},
		{
			name:     "tenant",
			tenants:  "acme:weight=1,rate=1200/s,burst=5",
			ullRate:  1500,
			workload: "scan=poisson:rate=2000/s,mode=horse,tenant=acme",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws, err := loadgen.ParseWorkloads(tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			build := func() *Cluster {
				t.Helper()
				var faults *faultinject.Injector
				if tc.faults != "" {
					rules, err := faultinject.ParseSpec(tc.faults)
					if err != nil {
						t.Fatal(err)
					}
					if faults, err = faultinject.New(seed, rules...); err != nil {
						t.Fatal(err)
					}
				}
				var tenants []tenant.Spec
				if tc.tenants != "" {
					if tenants, err = tenant.ParseSpecs(tc.tenants); err != nil {
						t.Fatal(err)
					}
				}
				specs := make([]NodeSpec, 8)
				for i := range specs {
					if i < 2 {
						specs[i].ULLSlots = 2
					}
				}
				c, err := New(Options{
					Specs:        specs,
					Policy:       PolicyULLAffinity,
					Seed:         seed,
					Faults:       faults,
					Fallback:     faas.FallbackConfig{Enabled: true},
					Tenants:      tenants,
					ULLAdmitRate: tc.ullRate,
				})
				if err != nil {
					t.Fatal(err)
				}
				registerScan(t, c, faas.SandboxSpec{})
				if _, err := c.ScaleCluster("scan", 4, core.Horse); err != nil {
					t.Fatal(err)
				}
				return c
			}
			outcome := func(c *Cluster) oracleOutcome {
				out := oracleOutcome{
					attribution: c.Trace().Attribution(),
					rejected:    c.Rejected(),
					failed:      c.Failed(),
					failovers:   c.FailoversByReason(),
				}
				for _, n := range c.Nodes() {
					out.served = append(out.served, n.Served())
				}
				return out
			}
			payload := scanPayload(t)

			// A: the epoch loop, one-microsecond quanta.
			a := build()
			if _, err := a.Run(RunConfig{
				Workloads:   ws,
				Horizon:     horizon,
				Payloads:    map[string][]byte{"scan": payload},
				SLO:         map[string]simtime.Duration{"scan": budget},
				SyncQuantum: simtime.Microsecond,
			}); err != nil {
				t.Fatal(err)
			}

			// B: the same arrivals, one direct Trigger each.
			b := build()
			b.SetTrace(trigtrace.NewRecorder(trigtrace.RecorderOptions{Seed: seed}))
			b.SetSLOBudget("scan", budget)
			for _, w := range ws {
				if err := b.BindTenant(w.Function, w.Tenant); err != nil {
					t.Fatal(err)
				}
			}
			gen, err := loadgen.New(seed, ws, loadgen.Options{})
			if err != nil {
				t.Fatal(err)
			}
			arrivals, err := gen.Collect(horizon)
			if err != nil {
				t.Fatal(err)
			}
			start := b.Settle()
			for _, arr := range arrivals {
				b.Clock().AdvanceTo(start.Add(arr.At.Sub(0)))
				_, _, err := b.Trigger(arr.Function, arr.Mode, payload)
				if err != nil && !errors.Is(err, ErrInvokeNotRetried) && !isRejection(err) {
					t.Fatalf("arrival %d: unexpected trigger error: %v", arr.Seq, err)
				}
			}

			want, got := outcome(a), outcome(b)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sequential Trigger replay diverged from Run:\n got  %+v\n want %+v", got, want)
			}
			t.Logf("%d arrivals: %d failovers, %d invoke failures, %d rejected",
				len(arrivals), b.Failovers(), b.Failed(), b.Rejected())
			if len(arrivals) == 0 || got.attribution == nil {
				t.Fatal("oracle compared an empty run")
			}
			if b.Failovers()+b.Failed()+b.Rejected() == 0 {
				t.Fatal("case exercised no failover, invocation failure, or rejection")
			}
		})
	}
}
