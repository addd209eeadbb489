package loadgen

import (
	"testing"

	"github.com/horse-faas/horse/internal/eventsim"
	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/telemetry"
)

// sinkArrival keeps the pinned arrivals from being optimized away.
var sinkArrival Arrival

// Allocation pin for one open-loop arrival: each source's handler is
// bound once by Install and re-schedules itself, and the engine reuses
// the event struct it just fired, so delivering an arrival and
// scheduling the next allocates nothing — with the arrivals counter
// armed, and for both a Poisson and an ON/OFF source.
func TestHotPathAllocFree(t *testing.T) {
	ws := []Workload{
		{Function: "nat", Spec: Spec{Kind: KindPoisson, Rate: 1e6}, Mix: ModeMix{{Mode: faas.ModeHorse, Weight: 1}, {Mode: faas.ModeWarm, Weight: 1}}},
		{Function: "scan", Spec: Spec{Kind: KindOnOff, Rate: 4e5, On: simtime.Millisecond, Off: simtime.Millisecond}, Mix: SingleMode(faas.ModeHorse)},
	}
	g, err := New(1, ws, Options{Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	engine := eventsim.New(nil)
	if err := g.Install(engine, simtime.Time(0).Add(simtime.Second), func(a Arrival) { sinkArrival = a }); err != nil {
		t.Fatal(err)
	}
	engine.Step()
	if n := testing.AllocsPerRun(1000, func() {
		if !engine.Step() {
			t.Fatal("arrival stream ended early")
		}
	}); n != 0 {
		t.Errorf("one arrival allocates %v, want 0", n)
	}
}
