package core

import (
	"math"
	"testing"

	"github.com/horse-faas/horse/internal/dvfs"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/vmm"
)

// TestEvolvingCreditsKeepMergeExact advances virtual time between
// pause/resume cycles so the vCPUs' credits (the sort keys) change every
// round; the continuously maintained merge_vcpus/posA must still splice
// exactly.
func TestEvolvingCreditsKeepMergeExact(t *testing.T) {
	e := newEngine(t)
	h := e.Hypervisor()
	a := ullSandbox(t, e, 5)
	b := ullSandbox(t, e, 7)
	q := h.ULLQueues()[0]

	for cycle := 0; cycle < 8; cycle++ {
		h.Clock().Advance(simtime.Duration(1+cycle) * simtime.Millisecond)
		if _, err := e.Pause(a, Horse); err != nil {
			t.Fatalf("cycle %d pause a: %v", cycle, err)
		}
		h.Clock().Advance(700 * simtime.Microsecond)
		if _, err := e.Pause(b, Horse); err != nil {
			t.Fatalf("cycle %d pause b: %v", cycle, err)
		}
		if _, err := e.Resume(a, Horse); err != nil {
			t.Fatalf("cycle %d resume a: %v", cycle, err)
		}
		if _, err := e.Resume(b, Horse); err != nil {
			t.Fatalf("cycle %d resume b: %v", cycle, err)
		}
		if !q.List().IsSorted() {
			t.Fatalf("cycle %d: ull queue unsorted", cycle)
		}
		if q.Len() != 12 {
			t.Fatalf("cycle %d: queue len = %d, want 12", cycle, q.Len())
		}
	}
	// Credits actually evolved (epoch resets may clip back to the
	// initial allocation, so compare within the final cycle instead of
	// against the initial value: the two sandboxes ran for different
	// spans, so their vCPUs cannot share one credit value).
	ca := a.VCPUs()[0].Credit
	cb := b.VCPUs()[0].Credit
	if ca == cb {
		t.Fatalf("credits did not evolve: a=%d b=%d", ca, cb)
	}
}

// TestGovernorSeesSameLoadUnderCoalescing wires a DVFS domain to the
// ull_runqueue's load variable and verifies the frequency decision after
// a HORSE resume (one coalesced update) matches the decision after a
// PPSM resume (n iterated updates) — the coalescing must be transparent
// to the governor it feeds.
func TestGovernorSeesSameLoadUnderCoalescing(t *testing.T) {
	for _, governor := range []dvfs.Governor{dvfs.Schedutil{}, dvfs.Ondemand{}} {
		freqFor := func(policy Policy) dvfs.KHz {
			e := newEngine(t)
			sb := ullSandbox(t, e, 24)
			if _, err := e.Pause(sb, policy); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Resume(sb, policy); err != nil {
				t.Fatal(err)
			}
			domain, err := dvfs.NewDomain(governor, dvfs.XeonPlatinum8360YPoints()...)
			if err != nil {
				t.Fatal(err)
			}
			load := e.Hypervisor().ULLQueues()[0].Load().Load()
			freq, _ := domain.Evaluate(load)
			return freq
		}
		horse := freqFor(Horse)
		ppsm := freqFor(PPSM)
		if horse != ppsm {
			t.Fatalf("%s: coalesced load drove %d kHz, iterated drove %d kHz",
				governor.Name(), horse, ppsm)
		}
	}
}

// TestXenFlavorFigure3Shape re-runs the Figure 3 headline on the Xen
// cost model: the paper reports "similar observations" for Xen.
func TestXenFlavorFigure3Shape(t *testing.T) {
	resume := func(policy Policy) simtime.Duration {
		h, err := vmm.New(vmm.Options{Costs: vmm.XenCostModel()})
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(h)
		sb, err := h.CreateSandbox(vmm.Config{VCPUs: 36, MemoryMB: 512, ULL: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Pause(sb, policy); err != nil {
			t.Fatal(err)
		}
		rr, err := e.Resume(sb, policy)
		if err != nil {
			t.Fatal(err)
		}
		return rr.Total
	}
	vanil := resume(Vanilla)
	horse := resume(Horse)
	if horse != 150*simtime.Nanosecond {
		t.Fatalf("Xen horse resume = %v, want the same constant 150ns", horse)
	}
	ratio := float64(vanil) / float64(horse)
	if ratio < 6.5 || ratio > 9 {
		t.Fatalf("Xen vanil/horse = %.2f, want ≈7-8x", ratio)
	}
}

// TestCoalescedLoadNumericalStability checks the coalesced path never
// drifts from the iterated one: after each run of pause/resume cycles
// the ull_runqueue load a consumer (a DVFS governor, say) reads must be
// the same under HORSE's one coalesced update as under PPSM's n
// iterated updates — over many cycles, and after a single resume of a
// wide sandbox.
func TestCoalescedLoadNumericalStability(t *testing.T) {
	for _, tc := range []struct{ vcpus, cycles int }{
		{vcpus: 16, cycles: 50},
		{vcpus: 24, cycles: 1},
	} {
		eH := newEngine(t)
		eP := newEngine(t)
		sbH := ullSandbox(t, eH, tc.vcpus)
		sbP := ullSandbox(t, eP, tc.vcpus)
		for i := 0; i < tc.cycles; i++ {
			if _, err := eH.Pause(sbH, Horse); err != nil {
				t.Fatal(err)
			}
			if _, err := eH.Resume(sbH, Horse); err != nil {
				t.Fatal(err)
			}
			if _, err := eP.Pause(sbP, PPSM); err != nil {
				t.Fatal(err)
			}
			if _, err := eP.Resume(sbP, PPSM); err != nil {
				t.Fatal(err)
			}
		}
		lh := eH.Hypervisor().ULLQueues()[0].Load().Load()
		lp := eP.Hypervisor().ULLQueues()[0].Load().Load()
		if diff := math.Abs(lh - lp); diff > 1e-6*math.Max(1, lp) {
			t.Fatalf("%d vCPUs, %d cycles: coalesced load %v drifted from iterated %v",
				tc.vcpus, tc.cycles, lh, lp)
		}
	}
}
