package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/horse-faas/horse/internal/cluster"
	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/eventsim"
	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/faultinject"
	"github.com/horse-faas/horse/internal/loadgen"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/tenant"
	"github.com/horse-faas/horse/internal/workload"
)

// shape is one workload's complete, seed-independent configuration.
// Every field is echoed in the run's provenance block.
type shape struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Nodes is the node count; the first ULLNodes carry ULLSlots
	// reserved uLL slots each.
	Nodes    int `json:"nodes"`
	ULLNodes int `json:"ull_nodes"`
	ULLSlots int `json:"ull_slots"`
	// VCPUs and MemoryMB size every sandbox.
	VCPUs    int `json:"vcpus"`
	MemoryMB int `json:"memory_mb"`
	// Pool is the cluster-wide pool size provisioned per function for
	// each pool-backed mode in its mix (horse → HORSE, warm → vanilla).
	Pool         int     `json:"pool"`
	Policy       string  `json:"policy"`
	Arrivals     string  `json:"arrivals"`
	Tenants      string  `json:"tenants,omitempty"`
	ULLAdmitRate float64 `json:"ull_admit_rate,omitempty"`
	Faults       string  `json:"faults,omitempty"`
	// Shards is the measured runs' shard count. Every workload is
	// measured on one: on a small shared host a two-shard Run's wall
	// time depends on both CPUs being free, and it spread 14% between
	// seeds where the one-shard Run's CPU time spread 1%.
	Shards int `json:"shards"`
	// RefShards is the shard count of a reference run whose report must
	// be byte-identical to the measured one's (0: none). Its wall time
	// also gives the traced run's eventsim.shard_speedup.
	RefShards int `json:"ref_shards,omitempty"`
	// Horizon is the virtual span of one Run.
	Horizon simtime.Duration `json:"horizon_ns"`
	// NullBody deploys the benchmark-owned null NAT body instead of the
	// real one, so the run measures platform work only.
	NullBody bool `json:"null_body"`
}

// shapes lists the benchmark's workloads; BENCHMARK.json names the same
// three with the same one-line reasons.
var shapes = []shape{
	{
		Name:     "null-flood",
		Why:      "platform-only trigger path: 1M/s HORSE arrivals on 1-vCPU sandboxes with a null body, one shard",
		Nodes:    8,
		ULLNodes: 8,
		ULLSlots: 4,
		VCPUs:    1,
		MemoryMB: 128,
		Pool:     16,
		Policy:   cluster.PolicyRoundRobin,
		Arrivals: "nat=poisson:rate=1000000/s,mode=horse",
		Shards:   1,
		Horizon:  300 * simtime.Millisecond,
		NullBody: true,
	},
	{
		Name:      "wide-mix",
		Why:       "36-vCPU sandboxes, half HORSE half vanilla warm: per-vCPU core/vmm/psm work on both resume paths, two-shard run checked identical",
		Nodes:     8,
		ULLNodes:  8,
		ULLSlots:  4,
		VCPUs:     36,
		MemoryMB:  128,
		Pool:      16,
		Policy:    cluster.PolicyRoundRobin,
		Arrivals:  "nat=poisson:rate=400000/s,mode=horse:0.5+warm:0.5",
		Shards:    1,
		RefShards: 2,
		Horizon:   250 * simtime.Millisecond,
	},
	{
		Name:         "tenant-storm",
		Why:          "adversarial tenants with node faults: admission gate, ull-affinity failover, fallback chain, scan body, empty epochs",
		Nodes:        8,
		ULLNodes:     2,
		ULLSlots:     2,
		VCPUs:        1,
		MemoryMB:     128,
		Pool:         4,
		Policy:       cluster.PolicyULLAffinity,
		Arrivals:     mustPreset(loadgen.PresetAdversarialTenants).Arrivals,
		Tenants:      mustPreset(loadgen.PresetAdversarialTenants).Tenants,
		ULLAdmitRate: mustPreset(loadgen.PresetAdversarialTenants).ULLAdmitRate,
		Faults:       "cluster.node.fail:nth=2000,cluster.node.drain:nth=6000,resume:rate=0.02,invoke:every=5000",
		// At two shards the seeded failover decides whether the scan
		// tenant's home node shares a shard with the NAT traffic, which
		// moved host time 25% between seeds.
		Shards:    1,
		RefShards: 2,
		Horizon:   4 * simtime.Second,
	},
}

func mustPreset(name string) loadgen.Preset {
	p, ok := loadgen.LookupPreset(name)
	if !ok {
		panic("perfbench: missing preset " + name)
	}
	return p
}

func lookupShape(name string) (shape, error) {
	names := make([]string, 0, len(shapes))
	for _, s := range shapes {
		if s.Name == name {
			return s, nil
		}
		names = append(names, s.Name)
	}
	return shape{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// nullOutput is what the null body returns for every trigger.
var nullOutput = []byte(`{}`)

// nullBody is the benchmark-owned null body: a function's name,
// category, and virtual duration with an Invoke that does no work, so
// host time spent around it is the platform's alone. The simulated
// report is the real body's byte for byte (checked on every null-flood
// run).
type nullBody struct{ workload.Function }

func (nullBody) Invoke([]byte) ([]byte, error) { return nullOutput, nil }

// spanFunc wraps a deployed function with the traced run's Invoke span.
// Invoke runs on shard goroutines, so the accumulators are atomic.
type spanFunc struct {
	workload.Function
	ns atomic.Int64
}

func (s *spanFunc) Invoke(payload []byte) ([]byte, error) {
	t := time.Now()
	out, err := s.Function.Invoke(payload)
	s.ns.Add(int64(time.Since(t)))
	return out, err
}

// function builds name's real body and its payload or, with null set,
// the null body standing in for it.
func function(name string, null bool) (workload.Function, []byte, error) {
	var fn workload.Function
	var req any
	switch name {
	case "nat":
		fn, req = workload.DefaultNAT(), workload.NATPacket{DstIP: "203.0.113.10", DstPort: 80}
	case "scan":
		fn, req = workload.NewScan(42), workload.ScanRequest{Threshold: 5000}
	default:
		return nil, nil, fmt.Errorf("no body for function %q", name)
	}
	payload, err := json.Marshal(req)
	if null {
		fn = nullBody{fn}
	}
	return fn, payload, err
}

// buildOpts varies one build of a shape for the output checks and the
// traced run.
type buildOpts struct {
	// Shards overrides the shape's shard count when positive.
	Shards int
	// RealBody deploys the real NAT body even on a null-body shape.
	RealBody bool
	// Span wraps every deployed function in a spanFunc.
	Span bool
	// NoFaults builds the cluster without the fault injector (the
	// ladder's fault-free copies of the workload's cluster).
	NoFaults bool
}

// setupTimes splits one set-up into its public calls.
type setupTimes struct {
	New, Register, Provision, Settle time.Duration
}

func (t setupTimes) total() time.Duration { return t.New + t.Register + t.Provision + t.Settle }

// built is one ready-to-run cluster.
type built struct {
	c         *cluster.Cluster
	cfg       cluster.RunConfig
	workloads []loadgen.Workload
	spans     map[string]*spanFunc
	start     simtime.Time
	setup     setupTimes
}

// build runs the workload's set-up through the public API, timing each
// phase: New, register + bind, provision, Settle.
func (s shape) build(seed int64, o buildOpts) (*built, error) {
	workloads, err := loadgen.ParseWorkloads(s.Arrivals)
	if err != nil {
		return nil, err
	}
	shards := s.Shards
	if o.Shards > 0 {
		shards = o.Shards
	}
	b := &built{workloads: workloads, spans: map[string]*spanFunc{}}

	t0 := time.Now()
	var injector *faultinject.Injector
	if !o.NoFaults {
		if injector, err = faultinject.FromSpec(seed, s.Faults); err != nil {
			return nil, err
		}
	}
	var tenants []tenant.Spec
	if s.Tenants != "" {
		if tenants, err = tenant.ParseSpecs(s.Tenants); err != nil {
			return nil, err
		}
	}
	specs := make([]cluster.NodeSpec, s.Nodes)
	for i := range specs {
		if i < s.ULLNodes {
			specs[i].ULLSlots = s.ULLSlots
		}
	}
	c, err := cluster.New(cluster.Options{
		Specs:        specs,
		Policy:       s.Policy,
		Seed:         seed,
		Faults:       injector,
		Fallback:     faas.FallbackConfig{Enabled: true},
		Shards:       shards,
		Tenants:      tenants,
		ULLAdmitRate: s.ULLAdmitRate,
	})
	if err != nil {
		return nil, err
	}
	t1 := time.Now()

	payloads := make(map[string][]byte, len(workloads))
	for _, w := range workloads {
		fn, payload, err := function(w.Function, s.NullBody && !o.RealBody)
		if err != nil {
			return nil, err
		}
		if o.Span {
			sf := &spanFunc{Function: fn}
			b.spans[w.Function] = sf
			fn = sf
		}
		if err := c.RegisterEverywhere(fn, faas.SandboxSpec{VCPUs: s.VCPUs, MemoryMB: s.MemoryMB}); err != nil {
			return nil, err
		}
		if err := c.BindTenant(w.Function, w.Tenant); err != nil {
			return nil, err
		}
		payloads[w.Function] = payload
	}
	t2 := time.Now()

	for _, w := range workloads {
		for _, p := range poolPolicies(w) {
			if _, err := c.ScaleCluster(w.Function, s.Pool, p); err != nil {
				return nil, fmt.Errorf("provisioning %s %s pool: %w", w.Function, p, err)
			}
		}
	}
	t3 := time.Now()

	b.start = c.Settle()
	t4 := time.Now()

	b.c = c
	b.cfg = cluster.RunConfig{Workloads: workloads, Horizon: s.Horizon, Payloads: payloads}
	b.setup = setupTimes{New: t1.Sub(t0), Register: t2.Sub(t1), Provision: t3.Sub(t2), Settle: t4.Sub(t3)}
	return b, nil
}

// poolPolicies lists the pools a workload's mix draws from, in clause
// order: horse arrivals from HORSE pools, warm arrivals from vanilla
// pools. Cold and restore arrivals need none.
func poolPolicies(w loadgen.Workload) []core.Policy {
	var out []core.Policy
	seen := map[core.Policy]bool{}
	for _, share := range w.Mix {
		var p core.Policy
		switch share.Mode {
		case faas.ModeHorse:
			p = core.Horse
		case faas.ModeWarm:
			p = core.Vanilla
		default:
			continue
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// collectArrivals regenerates the run's arrival stream standalone: the
// same generator, seed, and horizon, anchored at the instant Run starts
// from (Settle), because ON/OFF phases are absolute in virtual time.
func collectArrivals(seed int64, workloads []loadgen.Workload, start simtime.Time, horizon simtime.Duration) ([]loadgen.Arrival, error) {
	gen, err := loadgen.New(seed, workloads, loadgen.Options{})
	if err != nil {
		return nil, err
	}
	engine := eventsim.New(nil)
	engine.Clock().AdvanceTo(start)
	var out []loadgen.Arrival
	if err := gen.Install(engine, start.Add(horizon), func(a loadgen.Arrival) { out = append(out, a) }); err != nil {
		return nil, err
	}
	if err := engine.Run(0); err != nil {
		return nil, err
	}
	return out, nil
}

// functionNames returns the workload's function names, sorted.
func functionNames(workloads []loadgen.Workload) []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Function)
	}
	sort.Strings(names)
	return names
}
