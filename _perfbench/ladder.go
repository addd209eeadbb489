package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/eventsim"
	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/loadgen"
	"github.com/horse-faas/horse/internal/psm"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/tenant"
	"github.com/horse-faas/horse/internal/trigtrace"
	"github.com/horse-faas/horse/internal/vmm"
)

// rung is one microbenchmark result.
type rung struct {
	Ns     float64 // median ns per operation
	Allocs float64 // heap allocations per operation
}

// timeBatches runs op in batches until budget is spent (at least three
// batches). Each batch is prepared untimed by prep, then times n calls
// of op; n doubles from 1 until a batch takes a millisecond or reaches
// maxN. It returns the median batch ns/op and the allocations per op
// over every timed call.
func timeBatches(budget time.Duration, maxN int, prep func() error, op func() error) (rung, error) {
	var perOp []float64
	var ops, allocs uint64
	n := 1
	deadline := time.Now().Add(budget)
	for len(perOp) < 3 || time.Now().Before(deadline) {
		if prep != nil {
			if err := prep(); err != nil {
				return rung{}, err
			}
		}
		h0 := readHeap()
		t := time.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return rung{}, err
			}
		}
		d := time.Since(t)
		h1 := readHeap()
		perOp = append(perOp, float64(d.Nanoseconds())/float64(n))
		ops += uint64(n)
		allocs += h1.objects - h0.objects
		if d < time.Millisecond && n < maxN {
			n *= 2
			if n > maxN {
				n = maxN
			}
			perOp = perOp[:0] // discard the warm-up batches
			ops, allocs = 0, 0
		}
	}
	return rung{Ns: median(perOp), Allocs: float64(allocs) / float64(ops)}, nil
}

// clockOverhead is the median cost of one time.Now/time.Since pair,
// subtracted from per-call timings.
func clockOverhead() float64 {
	xs := make([]float64, 2001)
	for i := range xs {
		t := time.Now()
		xs[i] = float64(time.Since(t).Nanoseconds())
	}
	return median(xs)
}

// ladder holds every rung measured for one workload.
type ladder struct {
	Loadgen     rung            // per arrival
	Admit       rung            // per arrival
	AdmitRatio  float64         // admitted ÷ arrivals in the replay
	Pick        rung            // per routing decision
	Trigger     rung            // Cluster.Trigger on the null-flood shape
	Barrier     rung            // ShardGroup.Each at the workload's shards
	BarrierRef  rung            // ShardGroup.Each at the reference run's shards, if more
	Event       rung            // Engine.Schedule + Run of a no-op
	FaaS        map[string]rung // "fn/mode" → Platform.Trigger at the workload's vCPUs
	Primary     string          // the function whose faas rungs are reported
	Resume      map[string]rung // "policy.vN"
	Pause       map[string]rung // "policy.vN"
	MergeThread map[int]int     // vCPUs → MergeThreadCount after a HORSE pause
	Merge       map[int]rung    // vCPUs → Precomputed.Merge
	Trace       rung            // trigtrace Start + stages + Complete
	Invoke      map[string]rung // function → real body Invoke
}

// replay runs arrivals through a fresh tenant controller under the
// workload's contract — the same gate Run's pump applies. It returns
// each arrival's verdict (true = admitted) and a pass function that
// replays the whole stream again and returns its reject count.
func replay(s shape, arrivals []loadgen.Arrival, workloads []loadgen.Workload) ([]bool, func() uint64, error) {
	var specs []tenant.Spec
	var err error
	if s.Tenants != "" {
		if specs, err = tenant.ParseSpecs(s.Tenants); err != nil {
			return nil, nil, err
		}
	}
	var ctrl *tenant.Controller
	if len(specs) > 0 {
		slots := 0
		for i := 0; i < s.Nodes; i++ {
			if i < s.ULLNodes {
				slots += s.ULLSlots
			}
		}
		if ctrl, err = tenant.New(specs, tenant.Options{Slots: slots, ULLRate: s.ULLAdmitRate}); err != nil {
			return nil, nil, err
		}
	}
	idx := map[string]int{}
	ull := map[string]bool{}
	for _, w := range workloads {
		idx[w.Function] = -1
		if w.Tenant != "" && ctrl != nil {
			i, ok := ctrl.Lookup(w.Tenant)
			if !ok {
				return nil, nil, fmt.Errorf("replay: unknown tenant %q", w.Tenant)
			}
			idx[w.Function] = i
		}
		fn, _, err := function(w.Function, false)
		if err != nil {
			return nil, nil, err
		}
		ull[w.Function] = fn.Category().ULL()
	}
	// Resolve the per-arrival inputs once so the timed pass is Admit alone.
	type in struct {
		idx int
		at  simtime.Time
		ull bool
	}
	ins := make([]in, len(arrivals))
	for i, a := range arrivals {
		ins[i] = in{idx[a.Function], a.At, ull[a.Function]}
	}
	pass := func() uint64 {
		ctrl.ResetCounters()
		var rejects uint64
		for _, x := range ins {
			if ctrl.Admit(x.idx, x.at, x.ull) != tenant.Admitted {
				rejects++
			}
		}
		return rejects
	}
	ctrl.ResetCounters()
	admitted := make([]bool, len(ins))
	for i, x := range ins {
		admitted[i] = ctrl.Admit(x.idx, x.at, x.ull) == tenant.Admitted
	}
	return admitted, pass, nil
}

// measureLadder builds every rung at the workload's own shapes: its
// arrival specs and horizon, tenant contract, cluster and policy,
// vCPU count, and function bodies.
func measureLadder(s shape, seed int64, start simtime.Time, arrivals []loadgen.Arrival, workloads []loadgen.Workload, budget time.Duration) (*ladder, error) {
	l := &ladder{
		FaaS:        map[string]rung{},
		Resume:      map[string]rung{},
		Pause:       map[string]rung{},
		MergeThread: map[int]int{},
		Merge:       map[int]rung{},
		Invoke:      map[string]rung{},
	}
	n := float64(len(arrivals))
	if n == 0 {
		return nil, fmt.Errorf("ladder: workload %s generated no arrivals", s.Name)
	}

	// loadgen: the whole arrival stream, three times.
	var lg []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		if _, err := collectArrivals(seed, workloads, start, s.Horizon); err != nil {
			return nil, err
		}
		lg = append(lg, float64(time.Since(t).Nanoseconds())/n)
	}
	l.Loadgen = rung{Ns: median(lg)}

	// tenant: replay the stream through Controller.Admit.
	_, pass, err := replay(s, arrivals, workloads)
	if err != nil {
		return nil, err
	}
	l.AdmitRatio = 1 - float64(pass())/n
	var ad []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		pass()
		ad = append(ad, float64(time.Since(t).Nanoseconds())/n)
	}
	l.Admit = rung{Ns: median(ad)}

	// cluster router: Pick on a fault-free copy of the workload's
	// cluster, cycling through its functions.
	b, err := s.build(seed, buildOpts{NoFaults: true})
	if err != nil {
		return nil, err
	}
	fns := functionNames(workloads)
	ulls := make([]bool, len(fns))
	for i, name := range fns {
		fn, _, err := function(name, false)
		if err != nil {
			return nil, err
		}
		ulls[i] = fn.Category().ULL()
	}
	router, now, k := b.c.Router(), b.c.Clock().Now(), 0
	if l.Pick, err = timeBatches(budget, 1<<16, nil, func() error {
		i := k % len(fns)
		k++
		_, err := router.Pick(b.c, fns[i], ulls[i], nil, now)
		return err
	}); err != nil {
		return nil, err
	}

	// cluster trigger: the full routed trigger on the null-flood shape.
	nf := shapes[0]
	nb, err := nf.build(seed, buildOpts{NoFaults: true})
	if err != nil {
		return nil, err
	}
	nfPayload := nb.cfg.Payloads["nat"]
	if l.Trigger, err = timeBatches(budget, 1<<14, nil, func() error {
		_, _, err := nb.c.Trigger("nat", faas.ModeHorse, nfPayload)
		return err
	}); err != nil {
		return nil, err
	}

	// eventsim: the serve barrier at the workload's shard count and at
	// the reference run's, and one no-op event through the queue.
	if l.Barrier, err = barrierRung(s.Shards, budget); err != nil {
		return nil, err
	}
	l.BarrierRef = l.Barrier
	if s.RefShards > s.Shards {
		if l.BarrierRef, err = barrierRung(s.RefShards, budget); err != nil {
			return nil, err
		}
	}
	const evBatch = 256
	eng := eventsim.New(nil)
	nop := func(simtime.Time) {}
	if l.Event, err = timeBatches(budget, 1<<10, nil, func() error {
		at := eng.Now()
		for i := 0; i < evBatch; i++ {
			if _, err := eng.Schedule(at.Add(simtime.Duration(i)), nop); err != nil {
				return err
			}
		}
		return eng.Run(0)
	}); err != nil {
		return nil, err
	}
	l.Event.Ns /= evBatch
	l.Event.Allocs /= evBatch

	// faas: Platform.Trigger from warm pools on one node at the
	// workload's vCPU count, per function and per mode of the fallback
	// chain's hot end (horse, warm, restore).
	l.Primary = workloads[0].Function
	for _, w := range workloads {
		modes := []faas.StartMode{faas.ModeHorse, faas.ModeWarm, faas.ModeRestore}
		for _, mode := range modes {
			key := w.Function + "/" + mode.String()
			if _, done := l.FaaS[key]; done {
				continue
			}
			r, err := faasRung(s, w.Function, mode, budget)
			if err != nil {
				return nil, err
			}
			l.FaaS[key] = r
		}
	}

	// core and psm at 1 and 36 vCPUs (and at the workload's own count).
	clk := clockOverhead()
	for _, v := range vcpuSet(s.VCPUs) {
		for _, p := range []core.Policy{core.Horse, core.Vanilla} {
			pause, resume, threads, err := coreRungs(p, v, budget, clk)
			if err != nil {
				return nil, err
			}
			l.Pause[coreKey(p, v)], l.Resume[coreKey(p, v)] = pause, resume
			if p == core.Horse {
				l.MergeThread[v] = threads
			}
		}
		m, err := psmRung(v, budget, clk)
		if err != nil {
			return nil, err
		}
		l.Merge[v] = m
	}

	// trigtrace: one clean HORSE trigger's span tree.
	rec := trigtrace.NewRecorder(trigtrace.RecorderOptions{Seed: seed})
	var seq uint64
	if l.Trace, err = timeBatches(budget, 1<<16, nil, func() error {
		tc := rec.Start(seq, "nat", "horse", 0, 50_000)
		seq++
		traceStages(tc)
		return nil
	}); err != nil {
		return nil, err
	}

	// workload: the real bodies.
	for _, name := range []string{"nat", "scan"} {
		fn, payload, err := function(name, false)
		if err != nil {
			return nil, err
		}
		if l.Invoke[name], err = timeBatches(budget, 1<<16, nil, func() error {
			_, err := fn.Invoke(payload)
			return err
		}); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// barrierRung times one empty ShardGroup.Each barrier step.
func barrierRung(shards int, budget time.Duration) (rung, error) {
	if shards > 1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	}
	group := eventsim.NewShardGroup(shards)
	defer group.Close()
	noop := func(int) error { return nil }
	return timeBatches(budget, 1<<16, nil, func() error { return group.Each(noop) })
}

// traceStages records the stage sequence of one clean HORSE-path
// trigger — the call shape serveJob and faas emit per arrival.
func traceStages(tc trigtrace.Context) {
	tc.SetNode("node00")
	tc.RecordOn(trigtrace.StagePlacement, 0, 0, "node00", "", "round-robin")
	tc.RecordOn(trigtrace.StageQueueWait, 0, 100, "node00", "", "")
	tc.RecordOn(trigtrace.StagePoolTake, 100, 0, "node00", "horse", "")
	tc.RecordOn(trigtrace.StageResume, 100, 200, "node00", "horse", "")
	tc.RecordOn(trigtrace.StageInvoke, 300, 1500, "node00", "horse", "")
	tc.RecordOn(trigtrace.StageRepool, 1800, 50, "node00", "horse", "")
	tc.Complete(trigtrace.Outcome{Served: "horse", Node: "node00", Latency: 1800})
}

// coreKey names a core rung: policy and vCPU count.
func coreKey(p core.Policy, vcpus int) string { return fmt.Sprintf("%s.v%d", p, vcpus) }

func vcpuSet(v int) []int {
	set := []int{1, 36}
	if v != 1 && v != 36 {
		set = append(set, v)
		sort.Ints(set)
	}
	return set
}

// faasRung times Platform.Trigger of one function in one mode on a
// single node at the workload's vCPU count. The function runs its null
// body, so the rung is the platform's path alone; body time is the
// workload layer's. Pools hold one sandbox per policy (a trigger
// re-pools what it resumed); restores grow the pool, so each of their
// batches starts from a fresh platform.
func faasRung(s shape, name string, mode faas.StartMode, budget time.Duration) (rung, error) {
	fn, payload, err := function(name, true)
	if err != nil {
		return rung{}, err
	}
	var p *faas.Platform
	prep := func() error {
		var err error
		p, err = faas.New(faas.Options{ULLQueues: max(s.ULLSlots, 1), Fallback: faas.FallbackConfig{Enabled: true}})
		if err != nil {
			return err
		}
		if _, err := p.Register(fn, faas.SandboxSpec{VCPUs: s.VCPUs, MemoryMB: s.MemoryMB}); err != nil {
			return err
		}
		if err := p.Provision(name, 1, core.Horse); err != nil {
			return err
		}
		if err := p.Provision(name, 1, core.Vanilla); err != nil {
			return err
		}
		return p.EnsureSnapshot(name)
	}
	if err := prep(); err != nil {
		return rung{}, err
	}
	every := prep
	if mode != faas.ModeRestore {
		every = nil
	}
	return timeBatches(budget, 256, every, func() error {
		inv, err := p.Trigger(name, mode, payload)
		if err == nil && inv.Mode != mode {
			err = fmt.Errorf("faas rung %s/%s served as %s", name, mode, inv.Mode)
		}
		return err
	})
}

// coreRungs times Engine.Pause and Engine.Resume of one uLL sandbox
// per call, and reads the HORSE merge-thread count after a pause.
func coreRungs(policy core.Policy, vcpus int, budget time.Duration, clk float64) (pause, resume rung, threads int, err error) {
	h, err := vmm.New(vmm.Options{})
	if err != nil {
		return rung{}, rung{}, 0, err
	}
	e := core.NewEngine(h)
	sb, err := h.CreateSandbox(vmm.Config{VCPUs: vcpus, MemoryMB: 128, ULL: true})
	if err != nil {
		return rung{}, rung{}, 0, err
	}
	var ps, rs []float64
	var ops, allocs uint64
	deadline := time.Now().Add(budget)
	for len(ps) < 64 || time.Now().Before(deadline) {
		h0 := readHeap()
		for i := 0; i < 64; i++ {
			t0 := time.Now()
			if _, err := e.Pause(sb, policy); err != nil {
				return rung{}, rung{}, 0, err
			}
			t1 := time.Now()
			if policy == core.Horse {
				threads = e.MergeThreadCount(sb)
			}
			t2 := time.Now()
			if _, err := e.Resume(sb, policy); err != nil {
				return rung{}, rung{}, 0, err
			}
			t3 := time.Now()
			ps = append(ps, float64(t1.Sub(t0).Nanoseconds())-clk)
			rs = append(rs, float64(t3.Sub(t2).Nanoseconds())-clk)
		}
		h1 := readHeap()
		ops += 64
		allocs += h1.objects - h0.objects
	}
	a := float64(allocs) / float64(ops) / 2
	return rung{Ns: median(ps), Allocs: a}, rung{Ns: median(rs), Allocs: a}, threads, nil
}

// psmRung times Precomputed.Merge of vcpus source entries (one per
// vCPU) into a uLL run queue holding 64 entries. As in a sandbox's
// resume, the vCPUs land in one gap of the queue, so the merge is one
// splice group. The splice is undone untimed between merges.
func psmRung(vcpus int, budget time.Duration, clk float64) (rung, error) {
	const queued = 64
	target := psm.NewList[int]()
	for j := queued - 1; j >= 0; j-- {
		target.Insert(int64(j*1000), j)
	}
	pre := psm.NewPrecomputed(target)
	spliced := make(map[*psm.Element[int]]bool, vcpus)
	var xs []float64
	var ops, allocs uint64
	deadline := time.Now().Add(budget)
	for len(xs) < 64 || time.Now().Before(deadline) {
		if len(spliced) > 0 {
			target.RemoveIf(func(e *psm.Element[int]) bool { return spliced[e] })
			clear(spliced)
		}
		pre.Rebuild()
		for j := 0; j < vcpus; j++ {
			spliced[pre.AddSource(int64(500+j), j)] = true
		}
		h0 := readHeap()
		t := time.Now()
		if _, err := pre.Merge(); err != nil {
			return rung{}, err
		}
		d := time.Since(t)
		h1 := readHeap()
		xs = append(xs, float64(d.Nanoseconds())-clk)
		ops++
		allocs += h1.objects - h0.objects
	}
	return rung{Ns: median(xs), Allocs: float64(allocs) / float64(ops)}, nil
}
