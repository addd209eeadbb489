package psm

import "testing"

// Allocation pin for the HORSE pause/resume splice: re-arming with
// Rebuild, linking caller-owned nodes into the source and a single-key
// Merge reuse the arrayB capacity and the groups map, so a warmed-up
// cycle allocates nothing.
func TestHotPathAllocFree(t *testing.T) {
	target := NewList[int]()
	for i := 0; i < 8; i++ {
		target.Insert(int64(i*10), i)
	}
	p := NewPrecomputed(target)
	nodes := make([]Element[int], 4)
	cycle := func() {
		p.Rebuild()
		for i := range nodes {
			// Keys 31..34 all splice after the target element keyed 30.
			if !p.LinkSource(&nodes[i], int64(31+i), i) {
				t.Fatalf("node %d already linked", i)
			}
		}
		res, err := p.Merge()
		if err != nil {
			t.Fatal(err)
		}
		if res.Groups != 1 || res.Merged != len(nodes) {
			t.Fatalf("merge = %+v, want 1 group of %d", res, len(nodes))
		}
		for i := range nodes {
			if !target.Remove(&nodes[i]) {
				t.Fatalf("node %d not spliced into the target", i)
			}
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("Rebuild+LinkSource+Merge allocates %v per run, want 0", n)
	}
}
