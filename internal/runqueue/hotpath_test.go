package runqueue

import "testing"

// Allocation pin for run-queue surgery: Insert links the entity's own
// node, so an Insert+Remove round trip on a queue with no observers
// allocates nothing.
func TestHotPathAllocFree(t *testing.T) {
	q := New(0)
	for i := int64(0); i < 8; i++ {
		if _, _, err := q.Insert(vcpu("bg", i*10)); err != nil {
			t.Fatal(err)
		}
	}
	ent := vcpu("v", 35)
	if n := testing.AllocsPerRun(100, func() {
		e, _, err := q.Insert(ent)
		if err != nil {
			t.Fatal(err)
		}
		if err := q.Remove(e); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Insert+Remove allocates %v per run, want 0", n)
	}
}
