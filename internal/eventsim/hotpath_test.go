package eventsim

import (
	"testing"

	"github.com/horse-faas/horse/internal/simtime"
)

// Allocation pin for the engine's per-event cost. Step recycles the
// struct of the event it fires before running the handler, so a handler
// that schedules its successor — the shape of every arrival stream and
// of a serve event routed each epoch — reuses it, and a steady
// Schedule+Step cycle allocates nothing.
func TestHotPathAllocFree(t *testing.T) {
	e := New(nil)
	var handler Handler
	handler = func(now simtime.Time) {
		if _, err := e.Schedule(now.Add(1), handler); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Schedule(0, handler); err != nil {
		t.Fatal(err)
	}
	e.Step() // warm-up: the first struct, the heap and the pending map
	if n := testing.AllocsPerRun(1000, func() { e.Step() }); n != 0 {
		t.Errorf("self-rescheduling Step allocates %v per event, want 0", n)
	}

	// A Schedule from outside any handler, then the Step that fires it:
	// the coordinator routing one job onto an idle node engine.
	node := New(nil)
	noop := func(simtime.Time) {}
	cycle := func() {
		if _, err := node.Schedule(node.Now(), noop); err != nil {
			t.Fatal(err)
		}
		node.Step()
	}
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("Schedule+Step allocates %v per event, want 0", n)
	}
}

// A fired event's struct is reused by the next Schedule, but its ID is
// not: cancelling the old ID must miss and leave the new event pending.
func TestCancelStaleIDAfterReuse(t *testing.T) {
	e := New(nil)
	old, err := e.Schedule(1, func(simtime.Time) {})
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	fired := false
	fresh, err := e.Schedule(2, func(simtime.Time) { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	if fresh == old {
		t.Fatalf("Schedule reused event ID %d", old)
	}
	if e.Cancel(old) {
		t.Fatal("Cancel of a fired event's ID reported success")
	}
	if e.Len() != 1 {
		t.Fatalf("pending = %d after stale Cancel, want 1", e.Len())
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("stale Cancel removed the event that reused the struct")
	}

	// The same holds for a cancelled event's struct.
	gone, err := e.Schedule(3, func(simtime.Time) { t.Fatal("cancelled event fired") })
	if err != nil {
		t.Fatal(err)
	}
	if !e.Cancel(gone) {
		t.Fatal("Cancel of a pending event missed")
	}
	fired = false
	if _, err := e.Schedule(4, func(simtime.Time) { fired = true }); err != nil {
		t.Fatal(err)
	}
	if e.Cancel(gone) {
		t.Fatal("second Cancel of a cancelled event's ID reported success")
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("stale Cancel removed the event that reused a cancelled struct")
	}
}
