package trigtrace

import (
	"testing"

	"github.com/horse-faas/horse/internal/simtime"
)

// Allocation sinks keep the pinned calls from being optimized away.
var (
	sinkBool bool
	sinkID   TraceID
	sinkInt  int
)

// Allocation pins for every //horselint:hotpath function in this
// package: the annotated Context accessors must be allocation-free on
// both an armed context and the inert zero value the disabled path
// hands to every trigger.
func TestHotPathAllocFree(t *testing.T) {
	rec := NewRecorder(RecorderOptions{Seed: 1})
	tc := rec.Start(1, "echo", "horse", 0, 1000)
	var inert Context

	if n := testing.AllocsPerRun(100, func() {
		sinkBool = tc.Active() || inert.Active()
	}); n != 0 {
		t.Errorf("Context.Active allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sinkID = tc.ID() + inert.ID()
	}); n != 0 {
		t.Errorf("Context.ID allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		tc.SetNode("node-0")
		inert.SetNode("node-0")
	}); n != 0 {
		t.Errorf("Context.SetNode allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		tc.SetTenant("acme")
		inert.SetTenant("acme")
	}); n != 0 {
		t.Errorf("Context.SetTenant allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sinkInt = tc.Mark() + inert.Mark()
	}); n != 0 {
		t.Errorf("Context.Mark allocates %v per run, want 0", n)
	}
}

// Allocation pin for a whole armed trace on the common path: a trigger
// inside its SLO that does not make the worst-K set. The flight
// recorder drops it, the recorder recycles it, and the next Start
// reuses it with its Stages capacity, so Start, six stages and Complete
// allocate nothing (the attribution cells' sample slices grow by
// doubling, which rounds to zero per trace).
func TestHotPathAllocFreeDroppedTrace(t *testing.T) {
	rec := NewRecorder(RecorderOptions{Seed: 1, WorstK: 2})
	// Fill the worst-K set with slower traces so the pinned ones drop.
	for seq := uint64(0); seq < 2; seq++ {
		tc := rec.Start(seq, "echo", "horse", 0, 0)
		tc.Record(StageInvoke, 0, simtime.Duration(1_000_000))
		tc.Complete(Outcome{Served: "horse", Node: "node-0", Latency: 1_000_000})
	}
	seq := uint64(2)
	trigger := func() {
		tc := rec.Start(seq, "echo", "horse", 0, 1000)
		seq++
		benchStages(tc)
	}
	trigger()
	if n := testing.AllocsPerRun(1000, trigger); n != 0 {
		t.Errorf("Start+Complete of a dropped trace allocates %v per trigger, want 0", n)
	}
	if kept := rec.Flight().Kept(); kept != 2 {
		t.Fatalf("flight recorder kept %d traces, want only the 2 seeded", kept)
	}
}
