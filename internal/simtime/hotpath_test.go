package simtime

import "testing"

// Allocation pin for the stopwatch a hypervisor reuses for every pause
// and every resume: Reset keeps the step array, and View lends it
// without copying, so a warm frame's Reset+Charge+View allocates
// nothing.
func TestHotPathAllocFree(t *testing.T) {
	c := NewClock()
	sw := NewStopwatch(c)
	frame := func() {
		sw.Reset(c)
		sw.Charge("parse", 1)
		sw.Charge("merge", 2)
		sw.Charge("parse", 3)
		if steps := sw.View(); len(steps) != 2 || cap(steps) != 2 {
			t.Fatalf("got %d steps (cap %d), want 2", len(steps), cap(steps))
		}
	}
	frame()
	if n := testing.AllocsPerRun(1000, frame); n != 0 {
		t.Errorf("Reset+Charge+View allocates %v per frame, want 0", n)
	}
}

// Steps copies are private: a later Steps never overwrites an earlier
// copy, and appending to a copy cannot spill into the next one.
func TestStopwatchStepsCopiesDoNotShareMemory(t *testing.T) {
	c := NewClock()
	sw := NewStopwatch(c)
	sw.Charge("a", 1)
	first := sw.Steps()
	if cap(first) != len(first) {
		t.Fatalf("Steps copy has cap %d > len %d", cap(first), len(first))
	}
	sw.Reset(c)
	sw.Charge("b", 2)
	second := sw.Steps()
	grown := append(first, StopwatchResult{Label: "x", Cost: 9})
	grown[0].Cost = 7
	if first[0] != (StopwatchResult{Label: "a", Cost: 1}) {
		t.Fatalf("first copy = %+v, changed by a later append", first[0])
	}
	if second[0] != (StopwatchResult{Label: "b", Cost: 2}) {
		t.Fatalf("second copy = %+v, want b/2", second[0])
	}
	// Many frames later, earlier copies keep their values.
	var copies [][]StopwatchResult
	for i := 0; i < 768; i++ {
		sw.Reset(c)
		sw.Charge("step", Duration(i))
		copies = append(copies, sw.Steps())
	}
	for i, cp := range copies {
		if len(cp) != 1 || cp[0].Cost != Duration(i) {
			t.Fatalf("copy %d = %+v, want one step of cost %d", i, cp, i)
		}
	}
}
