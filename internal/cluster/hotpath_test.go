package cluster

import (
	"testing"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/loadgen"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/tenant"
	"github.com/horse-faas/horse/internal/workload"
)

// Allocation sinks keep the pinned calls from being optimized away.
var (
	sinkBool    bool
	sinkHash    uint64
	sinkDur     simtime.Duration
	sinkVerdict tenant.Verdict
)

// hotpathCluster builds the 8-node routing topology (2 uLL-reserved
// nodes) without deployments: routing decisions only read node state.
func hotpathCluster(t *testing.T, policy string) *Cluster {
	t.Helper()
	specs := make([]NodeSpec, 8)
	for i := range specs {
		if i < 2 {
			specs[i].ULLSlots = 2
		}
	}
	c, err := New(Options{Specs: specs, Policy: policy, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Allocation pins for every //horselint:hotpath function in this
// package: the routing decision every trigger pays — policy pick, ring
// hash, lag reads — must be allocation-free, matching the hotpath
// analyzer's static verdict.
func TestHotPathAllocFree(t *testing.T) {
	c := hotpathCluster(t, PolicyULLAffinity)
	a, ok := c.router.policy.(*ullAffinity)
	if !ok {
		t.Fatalf("router policy is %T, want *ullAffinity", c.router.policy)
	}
	now := c.clock.Now()
	node := c.nodes[0]
	rr := &roundRobin{}
	ll := leastLoaded{}

	if n := testing.AllocsPerRun(100, func() {
		if _, err := c.router.Pick(c, "scan", true, nil, now); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Router.Pick allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sinkBool = eligible(node, nil)
	}); n != 0 {
		t.Errorf("eligible allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := rr.pick(c, "scan", false, nil, now); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("roundRobin.pick allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ll.pick(c, "scan", false, nil, now); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("leastLoaded.pick allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := minLag(c.nodes, nil, now); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("minLag allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := a.pick(c, "scan", true, nil, now); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ullAffinity.pick allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sinkDur = a.allowedLag(c, nil, now)
	}); n != 0 {
		t.Errorf("ullAffinity.allowedLag allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sinkHash = hash64("scan")
	}); n != 0 {
		t.Errorf("hash64 allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sinkDur = node.Lag(now)
	}); n != 0 {
		t.Errorf("Node.Lag allocates %v per run, want 0", n)
	}

	// The tenant admission gate runs once per arrival ahead of every
	// pick; it must be as allocation-free as the pick itself. Pinned
	// both with a contract armed and on the untenanted fast path.
	tenanted, err := New(Options{
		Specs:        []NodeSpec{{ULLSlots: 2}, {ULLSlots: 2}},
		Seed:         42,
		Tenants:      []tenant.Spec{{Name: "acme", Weight: 3, Rate: 1e6}, {Name: "bg", Weight: 1}},
		ULLAdmitRate: 1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	tnow := tenanted.clock.Now()
	if n := testing.AllocsPerRun(100, func() {
		sinkVerdict = tenanted.router.Admit(0, tnow, true)
	}); n != 0 {
		t.Errorf("Router.Admit (tenanted) allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sinkVerdict = c.router.Admit(-1, now, true)
	}); n != 0 {
		t.Errorf("Router.Admit (untenanted) allocates %v per run, want 0", n)
	}
}

// nullNAT is the NAT function with a body that does nothing, so a run
// over it measures the platform alone.
type nullNAT struct{ workload.Function }

var nullResponse = []byte(`{}`)

func (nullNAT) Invoke([]byte) ([]byte, error) { return nullResponse, nil }

// Allocation pin for the whole arrival path of a warm run: mint, admit,
// route, serve and finalize. Events, jobs and dropped traces are
// recycled, the arrival and serve handlers are bound once, and the
// HORSE pause/resume cycle allocates nothing, so a null-body HORSE Run
// allocates well under one object per arrival; what remains is the
// run's fixed setup and the report's sample slices growing by doubling.
func TestHotPathAllocFreeRun(t *testing.T) {
	specs := make([]NodeSpec, 8)
	for i := range specs {
		specs[i].ULLSlots = 4
	}
	c, err := New(Options{Specs: specs, Policy: PolicyRoundRobin, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterEverywhere(nullNAT{workload.DefaultNAT()}, faas.SandboxSpec{VCPUs: 1, MemoryMB: 128}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ScaleCluster("nat", 16, core.Horse); err != nil {
		t.Fatal(err)
	}
	ws, err := loadgen.ParseWorkloads("nat=poisson:rate=1000000/s,mode=horse")
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{Workloads: ws, Horizon: 20 * simtime.Millisecond}
	var report Report
	run := func() {
		if report, err = c.Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun's untimed first call warms the pools, the free lists
	// and the recorder; the counted one is a warm run.
	allocs := testing.AllocsPerRun(1, run)
	if report.Served != report.Arrivals || report.Arrivals < 10_000 {
		t.Fatalf("served %d of %d arrivals, want all of at least 10000", report.Served, report.Arrivals)
	}
	if perArrival := allocs / float64(report.Arrivals); perArrival >= 0.1 {
		t.Errorf("warm null-body HORSE Run allocates %.3f per arrival (%v over %d), want < 0.1",
			perArrival, allocs, report.Arrivals)
	}
}
