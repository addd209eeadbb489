package core

import (
	"fmt"
	"testing"
)

// Allocation pin for the resume layer. After a warm-up cycle a
// Pause+Resume cycle relinks each vCPU's own run-queue node, under
// HORSE re-arms the P²SM structures the previous resume consumed, and
// carves the pause and resume reports' step copies from the
// hypervisor stopwatches' slabs, so it allocates nothing. The bound is
// the same at 1 and 36 vCPUs: the host-side cost of the splice is O(1)
// in the vCPU count, as the paper claims for the virtual-time one.
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
				if err := e.Validate(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
