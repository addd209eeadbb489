package cluster

import (
	"errors"
	"fmt"

	"github.com/horse-faas/horse/internal/eventsim"
	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/faultinject"
	"github.com/horse-faas/horse/internal/loadgen"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/tenant"
	"github.com/horse-faas/horse/internal/trigtrace"
)

// Default virtual-time latency budgets for RunConfig.SLO entries that
// are unset. The uLL budget sits far above the HORSE fast path (≈850 ns
// for a Category-3 scan) and the warm path (≈1.9 µs) but far below a
// snapshot restore (1300 µs), so it measures "did the trigger stay on a
// hot path", which is the paper's definition of a uLL-capable platform.
const (
	DefaultULLBudget = 50 * simtime.Microsecond
	DefaultBudget    = 5 * simtime.Second
)

// DefaultSyncQuantum is the epoch length of the conservative-PDES run
// loop (DESIGN.md §13): the span of virtual time each pump/route/serve
// cycle covers. Smaller quanta tighten the router's view of node
// backlog (lags are read at most one quantum stale) at the cost of
// more barriers; 100 µs is ~2 000 epochs per 200 ms experiment while
// keeping the staleness well below the default uLL headroom.
const DefaultSyncQuantum = 100 * simtime.Microsecond

// RunConfig drives one open-loop cluster experiment.
type RunConfig struct {
	// Workloads is the arrival mix (see loadgen.ParseWorkloads). Every
	// named function must already be registered on the cluster.
	Workloads []loadgen.Workload
	// Horizon is the virtual span to generate arrivals over.
	Horizon simtime.Duration
	// Payloads maps function name to trigger payload (nil entries send
	// nil payloads).
	Payloads map[string][]byte
	// SLO overrides the per-function virtual-time latency budget
	// (default DefaultULLBudget for uLL functions, DefaultBudget
	// otherwise).
	SLO map[string]simtime.Duration
	// MaxEvents caps the arrival-stream event loop as a runaway guard
	// (0 = no cap). The cap spans the whole run: every epoch's pump
	// draws from the same budget, and exceeding it with arrivals still
	// pending is an eventsim.ErrMaxEvents error.
	MaxEvents int
	// SyncQuantum overrides the epoch length (0 selects
	// DefaultSyncQuantum). The quantum changes the simulated routing
	// semantics (how stale the router's lag reads may be), so it is
	// part of the experiment's identity: same seed + same quantum ⇒
	// byte-identical report at every shard count.
	SyncQuantum simtime.Duration
}

// pendingJob is one arrival moving through an epoch of the run loop:
// minted by mintJob, routed by the coordinator, served on a node
// shard, and finalized by the coordinator in arrival order. Exactly
// one goroutine owns it at a time — the coordinator hands it to a node
// engine at a barrier and takes it back at the next — so its fields
// need no locks.
type pendingJob struct {
	fn      string
	ull     bool
	mode    faas.StartMode
	payload []byte
	arrival simtime.Time
	tc      trigtrace.Context

	// Failover state, coordinator-owned: only routeJob and serveEpoch's
	// retry sweep touch it, strictly between barriers.
	excluded  map[int]bool //horselint:coordinator
	failovers int          //horselint:coordinator
	lastErr   error        //horselint:coordinator

	// Per-attempt slots: node and policy are set at route time; the
	// serve handler fills the rest on the node's shard. These are the
	// sanctioned cross-phase hand-off — single-owner by the barrier
	// protocol, so they deliberately carry no ownership annotation.
	// policy is stamped here precisely so the serve handler does not
	// read it through the coordinator-owned router (shardsafe rejects
	// that access).
	node       *Node
	policy     string
	inv        faas.Invocation
	wait       simtime.Duration
	attemptErr error
	failedAt   simtime.Time

	// Terminal outcome, coordinator-owned. err is what the report
	// records; outErr is the trace outcome's error string (for
	// invocation failures the trace keeps the platform's own error,
	// while the report's err carries the ErrInvokeNotRetried wrap).
	err    error  //horselint:coordinator
	outErr string //horselint:coordinator

	latency simtime.Duration
}

// exclude rules a node out of this job's remaining routing decisions.
// Allocated lazily: the common trigger serves on its first pick.
//
//horselint:coordinator
func (j *pendingJob) exclude(idx, nodes int) {
	if j.excluded == nil {
		j.excluded = make(map[int]bool, nodes)
	}
	j.excluded[idx] = true
}

// Run generates the configured arrival stream on the cluster's event
// engine and drives it through the conservative-PDES epoch loop
// (DESIGN.md §13): virtual time advances in fixed sync quanta, each
// epoch pumping the arrival stream on the coordinator, routing every
// arrival through the placement policy in arrival order, then draining
// the node-local engines in parallel — one shard per worker — behind a
// barrier. All cross-node state (router cursors and lag reads, fault
// checks at the cluster.node.* sites, failover bookkeeping, the report
// and trace accumulators) is touched only by the coordinator between
// barriers, so the run is deterministic by construction: same seed,
// same options, same quantum ⇒ a byte-identical report at every shard
// count and GOMAXPROCS.
//
//horselint:coordinator
func (c *Cluster) Run(cfg RunConfig) (Report, error) {
	if cfg.Horizon <= 0 {
		return Report{}, errors.New("cluster: run horizon must be positive")
	}
	budgets := make(map[string]simtime.Duration, len(cfg.Workloads))
	for _, w := range cfg.Workloads {
		entry, ok := c.deployments[w.Function]
		if !ok {
			return Report{}, fmt.Errorf("cluster: workload function %q is not registered", w.Function)
		}
		// Tenant-tagged workloads bind their function to the tenant so
		// admission, quota, and report attribution all see it.
		if err := c.BindTenant(w.Function, w.Tenant); err != nil {
			return Report{}, err
		}
		budget, ok := cfg.SLO[w.Function]
		if !ok {
			if entry.ull {
				budget = DefaultULLBudget
			} else {
				budget = DefaultBudget
			}
		}
		if budget <= 0 {
			return Report{}, fmt.Errorf("cluster: non-positive SLO budget for %q", w.Function)
		}
		budgets[w.Function] = budget
	}
	// Every run starts from a clean accumulator slate — counters,
	// failover tallies, SLO budgets, policy cursors, and the trace
	// recorder's aggregates — so back-to-back runs on one cluster
	// report exactly what a fresh cluster would.
	c.resetRunState()
	// Arm per-trigger tracing so every run yields the tail-latency
	// attribution table; a caller-supplied recorder (Options.Trace) is
	// kept, including its retention sizing.
	if c.rec == nil {
		c.rec = trigtrace.NewRecorder(trigtrace.RecorderOptions{Seed: c.seed, Metrics: c.metrics})
	}
	for name, budget := range budgets {
		c.SetSLOBudget(name, budget)
	}
	gen, err := loadgen.New(c.seed, cfg.Workloads, loadgen.Options{Metrics: c.metrics})
	if err != nil {
		return Report{}, err
	}
	builder := newReportBuilder(c, cfg.Horizon, budgets)
	quantum := cfg.SyncQuantum
	if quantum <= 0 {
		quantum = DefaultSyncQuantum
	}
	// Setup work (provisioning, registration) charged the node-local
	// clocks; settle so it does not read as backlog to the first
	// arrivals.
	start := c.Settle()
	horizonEnd := start.Add(cfg.Horizon)
	// The pump sink only queues: arrivals are minted (and their trace
	// contexts started) in arrival order on the coordinator, then routed
	// and served epoch by epoch.
	var epoch []*pendingJob
	err = gen.Install(c.engine, horizonEnd, func(a loadgen.Arrival) {
		epoch = append(epoch, c.mintJob(a.Function, a.Mode, cfg.Payloads[a.Function], a.At))
	})
	if err != nil {
		return Report{}, err
	}
	group := eventsim.NewShardGroup(c.shards)
	defer group.Close()
	fired0 := c.engine.Fired()
	for now := start; now.Before(horizonEnd); {
		next := now.Add(quantum)
		if next.After(horizonEnd) {
			next = horizonEnd
		}
		budget := 0
		if cfg.MaxEvents > 0 {
			budget = cfg.MaxEvents - int(c.engine.Fired()-fired0)
			if budget <= 0 {
				if c.engine.Len() > 0 {
					return Report{}, fmt.Errorf("%w: run fired %d arrival events (cap %d) with %d still pending",
						eventsim.ErrMaxEvents, c.engine.Fired()-fired0, cfg.MaxEvents, c.engine.Len())
				}
				budget = -1 // spent exactly; nothing pending, just advance
			}
		}
		if budget >= 0 {
			if err := c.engine.RunUntil(next, budget); err != nil {
				return Report{}, err
			}
		} else {
			c.clock.AdvanceTo(next)
		}
		if len(epoch) > 0 {
			if err := c.serveEpoch(group, epoch, builder); err != nil {
				return Report{}, err
			}
			epoch = epoch[:0]
		}
		now = next
	}
	return builder.build(), nil
}

// mintJob turns one arrival into a pending job on the coordinator: it
// starts the trigger's trace context, tags its tenant, and runs the
// tenant admission gate. Run's pump and Trigger both mint here, so an
// arrival is admitted, numbered, and traced the same way on either
// path. The gate fires in arrival order, identically at every shard
// count; a rejected job is terminal before routing — it consumes no
// placement and is finalized with the rest of its epoch.
//
//horselint:coordinator
func (c *Cluster) mintJob(fn string, mode faas.StartMode, payload []byte, at simtime.Time) *pendingJob {
	entry := c.deployments[fn]
	tc := c.rec.Start(c.seq, fn, mode.String(), at, c.sloBudgets[fn])
	tc.SetTenant(entry.tenantName)
	c.seq++
	job := &pendingJob{fn: fn, ull: entry.ull, mode: mode, payload: payload, arrival: at, tc: tc}
	if v := c.router.Admit(entry.tenant, at, entry.ull); v != tenant.Admitted {
		job.err = admissionError(entry.tenantName, v)
		job.outErr = job.err.Error()
		c.rejected++
	}
	return job
}

// serveEpoch routes and serves one epoch's arrivals. Routing runs on
// the coordinator in arrival order; serving drains the node-local
// engines in parallel behind a ShardGroup barrier; triggers that fail
// retryably come back to the coordinator and re-route in the next
// wave. When every job is terminal the epoch is finalized in arrival
// order: each trace is completed and, unless builder is nil (a direct
// Trigger, which is a one-job epoch), folded into the report.
//
//horselint:coordinator
func (c *Cluster) serveEpoch(group *eventsim.ShardGroup, jobs []*pendingJob, builder *reportBuilder) error {
	shards := group.Shards()
	pending := jobs
	for len(pending) > 0 {
		scheduled := c.scheduled[:0]
		for _, job := range pending {
			// Jobs the admission gate already rejected at the pump are
			// terminal: they skip routing and go straight to finalize.
			if job.err != nil {
				continue
			}
			if c.routeJob(job) {
				scheduled = append(scheduled, job)
			}
		}
		c.scheduled = scheduled
		if len(scheduled) == 0 {
			break
		}
		// The serve barrier: shard s drains the engines of the nodes it
		// owns (index mod shards). Node state — platform, local clock,
		// pools, per-node fault stream, the jobs' attempt slots — is
		// touched only by its owning shard until Each returns.
		if err := group.Each(func(shard int) error {
			for _, n := range c.nodes {
				if n.index%shards != shard {
					continue
				}
				if err := n.engine.Run(0); err != nil {
					return fmt.Errorf("cluster: drain %s engine: %w", n.id, err)
				}
			}
			return nil
		}); err != nil {
			return err
		}
		var retry []*pendingJob
		for _, job := range scheduled {
			if job.attemptErr == nil {
				continue
			}
			terr := job.attemptErr
			n := job.node
			if errors.Is(terr, faas.ErrInvokeFailed) {
				// The function body ran and died; retrying on another
				// node would double-execute user code.
				c.failed++
				job.err = fmt.Errorf("%w: %v", ErrInvokeNotRetried, terr)
				job.outErr = terr.Error()
				continue
			}
			c.countFailover(ReasonTriggerFailed)
			job.tc.Reroute(job.failedAt, n.id, ReasonTriggerFailed)
			job.exclude(n.index, len(c.nodes))
			job.failovers++
			job.lastErr = terr
			retry = append(retry, job)
		}
		pending = retry
	}
	// Finalize in arrival order so trace completion — and with it the
	// flight recorder's insertion-order retention — is identical at
	// every shard count.
	for _, job := range jobs {
		if job.err != nil {
			job.tc.Complete(trigtrace.Outcome{Err: job.outErr})
			// The error path records no served mode and no node: the
			// trigger was not served, so a zero-value placement must not
			// leak mode/node labels into the report's distributions.
			if builder != nil {
				builder.record(job.fn, "", "", 0, job.err)
			}
			continue
		}
		job.tc.Complete(trigtrace.Outcome{Served: job.inv.Mode.String(), Node: job.node.id, Latency: job.latency})
		if builder != nil {
			builder.record(job.fn, job.inv.Mode.String(), job.node.id, job.latency, nil)
		}
	}
	return nil
}

// routeJob runs one job's routing decisions on the coordinator until
// the job is either scheduled onto a node-local engine (true) or
// terminally rejected (false). The cluster.node.* fault sites fire
// here, against the shared parent injector, in arrival order — the
// same stream a sequential run draws.
//
//horselint:coordinator
func (c *Cluster) routeJob(job *pendingJob) bool {
	for {
		n, err := c.router.Pick(c, job.fn, job.ull, job.excluded, job.arrival)
		if err != nil {
			c.rejected++
			if job.lastErr != nil {
				err = fmt.Errorf("%w (last node error: %v)", err, job.lastErr)
			}
			job.err = err
			job.outErr = err.Error()
			return false
		}
		// One fault check per routing decision: the node we were about to
		// use can fail hard or start draining under us.
		if ferr := c.faults.Check(faultinject.SiteNodeFail); ferr != nil {
			if err := c.Fail(n.id); err != nil {
				// Unreachable: the router only picks Up nodes.
				job.err = err
				job.outErr = err.Error()
				return false
			}
			c.countFailover(ReasonNodeFailed)
			job.tc.Reroute(job.arrival, n.id, ReasonNodeFailed)
			job.exclude(n.index, len(c.nodes))
			job.failovers++
			continue
		}
		if ferr := c.faults.Check(faultinject.SiteNodeDrain); ferr != nil {
			if err := c.Drain(n.id); err != nil {
				// A partial re-home degrades capacity but the node is
				// draining regardless; the failover below still applies.
				c.rehomeFailed++
			}
			c.countFailover(ReasonNodeDraining)
			job.tc.Reroute(job.arrival, n.id, ReasonNodeDraining)
			job.exclude(n.index, len(c.nodes))
			job.failovers++
			continue
		}
		job.node = n
		job.policy = c.router.Policy()
		job.attemptErr = nil
		at := job.arrival
		if local := n.platform.Clock().Now(); local.After(at) {
			at = local
		}
		if _, serr := n.engine.Schedule(at, func(simtime.Time) { c.serveJob(job) }); serr != nil {
			// Unreachable: at is clamped to the node's current instant.
			job.err = serr
			job.outErr = serr.Error()
			return false
		}
		return true
	}
}

// serveJob serves one routed job on its node's shard. It touches only
// the job (single-owner), the node, and the node's platform; the trace
// context is the job's own, so recording is race-free even though the
// recorder is shared.
//
//horselint:shardphase
func (c *Cluster) serveJob(job *pendingJob) {
	n := job.node
	local := n.platform.Clock()
	// The engine clamped the clock forward to the serve instant: at or
	// after the arrival, after every earlier trigger this node serves
	// this epoch. The gap to the arrival is queueing behind the node's
	// backlog.
	start := local.Now()
	wait := start.Sub(job.arrival)
	job.wait = wait
	// The placement stood; the hop's stages are recorded from mark so a
	// hop that fails after all can be rolled up into one failed-attempt
	// span covering exactly the virtual time it cost.
	mark := job.tc.Mark()
	job.tc.SetNode(n.id)
	job.tc.RecordOn(trigtrace.StagePlacement, job.arrival, 0, n.id, "", job.policy)
	job.tc.RecordOn(trigtrace.StageQueueWait, job.arrival, wait, n.id, "", "")
	inv, terr := n.platform.TriggerTraced(job.tc, job.fn, job.mode, job.payload)
	if terr != nil {
		consumed := local.Now().Sub(job.arrival)
		detail := ReasonTriggerFailed
		if errors.Is(terr, faas.ErrInvokeFailed) {
			detail = string(faultinject.SiteInvoke)
		}
		job.tc.CollapseFailed(mark, job.arrival, consumed, n.id, job.mode.String(), detail)
		job.attemptErr = terr
		job.failedAt = local.Now()
		return
	}
	job.inv = inv
	n.served++
	// Caller-observed latency ends when the function's response is
	// ready; the re-pool pause after it is node housekeeping and shows
	// up only as backlog (Lag) for later triggers.
	job.latency = wait + inv.Total()
	n.triggers.Inc()
	n.load.Set(int64(n.Lag(job.arrival)))
}
