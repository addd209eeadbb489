package core

import (
	"fmt"
	"runtime"
	"testing"
)

// Allocation pin for the resume layer. After a warm-up cycle a
// Pause+Resume cycle relinks each vCPU's own run-queue node, under
// HORSE re-arms the P²SM structures the previous resume consumed, and
// hands out the pause and resume reports' steps as views of the
// hypervisor's stopwatches, so it allocates nothing. AllocsPerRun's
// integer average would hide an allocation made once in many cycles,
// so the pin also totals the bytes and objects of warmCycles cycles.
// The bound is the same at 1 and 36 vCPUs: the host-side cost of the
// splice is O(1) in the vCPU count, as the paper claims for the
// virtual-time one.
func TestHotPathAllocFree(t *testing.T) {
	const maxAllocs = 0
	for _, policy := range []Policy{Horse, Vanilla} {
		for _, vcpus := range []int{1, 36} {
			t.Run(fmt.Sprintf("%s/v%d", policy, vcpus), func(t *testing.T) {
				e := newEngine(t)
				sb := ullSandbox(t, e, vcpus)
				cycle := func() {
					if _, err := e.Pause(sb, policy); err != nil {
						t.Fatal(err)
					}
					if _, err := e.Resume(sb, policy); err != nil {
						t.Fatal(err)
					}
				}
				cycle()
				if n := testing.AllocsPerRun(100, cycle); n > maxAllocs {
					t.Errorf("Pause+Resume allocates %v per run, want <= %d", n, maxAllocs)
				}
				if bytes, objects := allocTotals(warmCycles, cycle); bytes != 0 || objects != 0 {
					t.Errorf("%d Pause+Resume cycles allocate %d B in %d objects, want 0",
						warmCycles, bytes, objects)
				}
				if err := e.Validate(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// warmCycles is how many cycles the byte pin totals.
const warmCycles = 10000

// allocTotals runs f n times on one P and returns the bytes and objects
// the heap allocated meanwhile.
func allocTotals(n int, f func()) (bytes, objects uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}
