package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/horse-faas/horse/internal/cluster"
	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/loadgen"
	"github.com/horse-faas/horse/internal/simtime"
)

// attrRow is one layer's share of a traced Run's wall time: how many
// times the run entered the layer (from the report), what one entry
// costs (from the ladder, or measured by a span), and the layer's self
// time once the layers nested inside it are taken out.
type attrRow struct {
	Layer   string
	Count   float64
	NsPerOp float64
	SelfNs  float64
	Share   float64
}

// attribution is the traced run's decomposition of Run's wall time.
type attribution struct {
	Rows         []attrRow
	Epochs       int
	Barriers     int
	Unattributed float64 // share of Run wall time no layer accounts for
	WallNs       float64
}

// runCounts are the per-layer entry counts of one Run, read from its
// report and its arrival stream.
type runCounts struct {
	arrivals, admitted, picks, scheduled float64
	served                               map[string]float64 // "fn/mode" → served
	failedAttempts                       float64
	epochs, barriers                     int
}

func countRun(s shape, r cluster.Report, arrivals []loadgen.Arrival, admitted []bool, start simtime.Time, workloads []loadgen.Workload) runCounts {
	c := runCounts{arrivals: float64(r.Arrivals), served: map[string]float64{}}
	admission := float64(reasonCount(r.RejectionReasons, "admission"))
	c.admitted = c.arrivals - admission
	// Every admitted arrival is routed once; every voided decision
	// (failover) routes it again.
	c.picks = c.admitted + float64(r.Failovers)
	triggerFailed := float64(reasonCount(r.FailoverReasons, cluster.ReasonTriggerFailed))
	c.failedAttempts = float64(r.Failed) + triggerFailed
	c.scheduled = float64(r.Served) + c.failedAttempts

	// Served per function and mode: the modes rows for a one-function
	// mix, the tenant rows (one tenant per function) otherwise.
	if len(workloads) == 1 {
		for _, m := range r.Modes {
			c.served[workloads[0].Function+"/"+m.Mode] += float64(m.Count)
		}
	} else {
		fnOf := map[string]string{}
		for _, w := range workloads {
			fnOf[w.Tenant] = w.Function
		}
		for _, tm := range r.TenantModes {
			c.served[fnOf[tm.Tenant]+"/"+tm.Mode] += float64(tm.Count)
		}
	}

	// Epochs are Run's loop iterations; a barrier is an epoch with at
	// least one admitted arrival to route and serve.
	q := cluster.DefaultSyncQuantum
	c.epochs = int((s.Horizon + q - 1) / q)
	last := -1
	for i, a := range arrivals {
		if !admitted[i] {
			continue
		}
		if e := int(a.At.Sub(start) / q); e != last {
			c.barriers++
			last = e
		}
	}
	return c
}

// attribute splits one traced Run's wall time over the layers as entry
// count × ladder ns/op. Nested layers are counted once: faas contains
// core and the function body, core contains psm. The faas rungs run a
// null body, so the body's time comes from the traced run's Invoke
// spans alone. Every workload's measured Run is on one shard, so no
// layer's time overlaps another's.
func attribute(s shape, c runCounts, l *ladder, bodyNs float64, wall time.Duration) attribution {
	v := s.VCPUs
	var faasNs, coreNs, psmNs, horse, warm float64
	for key, n := range c.served {
		faasNs += n * l.FaaS[key].Ns
		switch {
		case strings.HasSuffix(key, "/"+faas.ModeHorse.String()):
			horse += n
		case strings.HasSuffix(key, "/"+faas.ModeWarm.String()):
			warm += n
		}
	}
	faasNs += c.failedAttempts * l.FaaS[l.Primary+"/horse"].Ns
	coreNs = horse*(l.Pause[coreKey(core.Horse, v)].Ns+l.Resume[coreKey(core.Horse, v)].Ns) +
		warm*(l.Pause[coreKey(core.Vanilla, v)].Ns+l.Resume[coreKey(core.Vanilla, v)].Ns)
	psmNs = horse * l.Merge[v].Ns

	rows := []attrRow{
		{Layer: "loadgen", Count: c.arrivals, NsPerOp: l.Loadgen.Ns, SelfNs: c.arrivals * l.Loadgen.Ns},
		{Layer: "tenant", Count: c.arrivals, NsPerOp: l.Admit.Ns, SelfNs: c.arrivals * l.Admit.Ns},
		{Layer: "cluster.router", Count: c.picks, NsPerOp: l.Pick.Ns, SelfNs: c.picks * l.Pick.Ns},
		{Layer: "trigtrace", Count: c.arrivals, NsPerOp: l.Trace.Ns, SelfNs: c.arrivals * l.Trace.Ns},
		{Layer: "eventsim.barrier", Count: float64(c.barriers), NsPerOp: l.Barrier.Ns, SelfNs: float64(c.barriers) * l.Barrier.Ns},
		{Layer: "eventsim.serve_event", Count: c.scheduled, NsPerOp: l.Event.Ns, SelfNs: c.scheduled * l.Event.Ns},
		{Layer: "faas", Count: c.scheduled, NsPerOp: perOp(faasNs, c.scheduled), SelfNs: faasNs - coreNs},
		{Layer: "core", Count: horse + warm, NsPerOp: perOp(coreNs, horse+warm), SelfNs: coreNs - psmNs},
		{Layer: "psm", Count: horse, NsPerOp: l.Merge[v].Ns, SelfNs: psmNs},
		{Layer: "workload", Count: c.scheduled, NsPerOp: perOp(bodyNs, c.scheduled), SelfNs: bodyNs},
	}
	a := attribution{Epochs: c.epochs, Barriers: c.barriers, WallNs: float64(wall.Nanoseconds()), Unattributed: 1}
	for i := range rows {
		rows[i].Share = rows[i].SelfNs / a.WallNs
		a.Unattributed -= rows[i].Share
	}
	a.Rows = rows
	return a
}

func perOp(total, n float64) float64 {
	if n == 0 {
		return 0
	}
	return total / n
}

// share returns the named layer's self share (0 if absent).
func (a attribution) share(layer string) float64 {
	for _, r := range a.Rows {
		if r.Layer == layer {
			return r.Share
		}
	}
	return 0
}

// print writes the attribution table, then the GC and set-up spans that
// sit beside (not inside) the Run decomposition.
func (a attribution) print(w io.Writer, name string, gcCPUms float64, setup setupTimes, overhead float64) {
	fmt.Fprintf(w, "attribution %s: Run wall %.1f ms, %d epochs (%d with a barrier)\n", name, a.WallNs/1e6, a.Epochs, a.Barriers)
	fmt.Fprintf(w, "  %-22s %12s %12s %10s %8s\n", "layer", "count", "ns/op", "self ms", "share")
	for _, r := range a.Rows {
		fmt.Fprintf(w, "  %-22s %12.0f %12.1f %10.2f %8.4f\n", r.Layer, r.Count, r.NsPerOp, r.SelfNs/1e6, r.Share)
	}
	fmt.Fprintf(w, "  %-22s %12s %12s %10.2f %8.4f\n", "cluster.unattributed", "", "", a.Unattributed*a.WallNs/1e6, a.Unattributed)
	fmt.Fprintf(w, "  span gc.cpu (concurrent, not in the sum) %.2f ms\n", gcCPUms)
	fmt.Fprintf(w, "  span setup: new %.3f ms, register %.3f ms, provision %.3f ms, settle %.3f ms\n",
		ms(setup.New), ms(setup.Register), ms(setup.Provision), ms(setup.Settle))
	fmt.Fprintf(w, "  bench.trace_overhead %.4f\n", overhead)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
