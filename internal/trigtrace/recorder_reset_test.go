package trigtrace

import (
	"reflect"
	"testing"

	"github.com/horse-faas/horse/internal/simtime"
)

// TestRecorderResetClearsRunState pins the cross-run state-leak fix:
// a recorder reused across back-to-back cluster runs must report only
// the run at hand after Reset — aggregates, counters, and the flight
// recorder all return to their freshly built state.
func TestRecorderResetClearsRunState(t *testing.T) {
	rec := NewRecorder(RecorderOptions{Seed: 11, WorstK: 4})

	record := func(seq uint64, violate bool) {
		budget := simtime.Duration(1000)
		tc := rec.Start(seq, "echo", "horse", 0, budget)
		dur := simtime.Duration(100)
		if violate {
			dur = simtime.Duration(5000)
		}
		tc.RecordOn(StageInvoke, 0, dur, "n0", "horse", "")
		tc.Complete(Outcome{Served: "horse", Node: "n0", Latency: dur})
	}

	record(0, false)
	record(1, true)
	record(2, true)
	if rec.Finished() != 3 || rec.Violations() != 2 {
		t.Fatalf("setup: Finished=%d Violations=%d, want 3/2", rec.Finished(), rec.Violations())
	}
	if len(rec.Traces()) == 0 || len(rec.Attribution()) == 0 {
		t.Fatal("setup did not retain traces and aggregates")
	}

	rec.Reset()

	if rec.Finished() != 0 || rec.Violations() != 0 || rec.ReconcileFailures() != 0 {
		t.Fatalf("after Reset: Finished=%d Violations=%d Reconcile=%d, want all zero",
			rec.Finished(), rec.Violations(), rec.ReconcileFailures())
	}
	if got := rec.Traces(); len(got) != 0 {
		t.Fatalf("after Reset: %d retained traces, want none", len(got))
	}
	if got := rec.Attribution(); len(got) != 0 {
		t.Fatalf("after Reset: %d attribution rows, want none", len(got))
	}
	if rec.Seed() != 11 {
		t.Fatalf("Reset changed seed to %d", rec.Seed())
	}

	// Recording after Reset aggregates freshly, as on a new recorder.
	record(0, true)
	if rec.Finished() != 1 || rec.Violations() != 1 {
		t.Fatalf("after Reset+record: Finished=%d Violations=%d, want 1/1", rec.Finished(), rec.Violations())
	}
	rows := rec.Attribution()
	if len(rows) != 1 || rows[0].Count != 1 {
		t.Fatalf("after Reset+record: attribution %+v, want one row with count 1", rows)
	}
	if got := rec.Traces(); len(got) != 1 || got[0].Seq != 0 {
		t.Fatalf("after Reset+record: retained %+v, want the one new trace", got)
	}
}

// TestRecorderResetNil pins nil-safety: the cluster calls Reset before
// it knows whether tracing is armed.
func TestRecorderResetNil(t *testing.T) {
	var rec *Recorder
	rec.Reset() // must not panic
}

// Recycling must never reach a retained trace: the must-keep ring and
// the worst-K set hold their traces by pointer, so traces returned by
// Traces keep their Seq and Stages however many dropped traces are
// recycled after them.
func TestRetainedTracesSurviveRecycling(t *testing.T) {
	rec := NewRecorder(RecorderOptions{Seed: 5, Capacity: 4, WorstK: 2})
	record := func(seq uint64, lat simtime.Duration) {
		tc := rec.Start(seq, "echo", "horse", 0, 1000)
		tc.RecordOn(StageQueueWait, 0, 1, "n0", "", "")
		tc.RecordOn(StageInvoke, 1, lat-1, "n0", "horse", "")
		tc.Complete(Outcome{Served: "horse", Node: "n0", Latency: lat})
	}
	record(0, 5000) // violator: must-keep (and worst-K)
	record(1, 900)  // worst-K
	record(2, 800)  // below the worst-K floor: dropped and recycled
	before := rec.Traces()
	if len(before) != 2 {
		t.Fatalf("retained %d traces, want 2", len(before))
	}
	snapshot := make([]TriggerTrace, len(before))
	for i, tr := range before {
		snapshot[i] = *tr
		snapshot[i].Stages = append([]StageRecord(nil), tr.Stages...)
	}
	for seq := uint64(3); seq < 1000; seq++ {
		record(seq, 100+simtime.Duration(seq%7))
	}
	after := rec.Traces()
	if len(after) != len(before) {
		t.Fatalf("retained %d traces after recycling, want %d", len(after), len(before))
	}
	for i, tr := range before {
		if after[i] != tr {
			t.Fatalf("retained trace %d was replaced", i)
		}
		if tr.Seq != snapshot[i].Seq || tr.ID != snapshot[i].ID || tr.Latency != snapshot[i].Latency {
			t.Fatalf("retained trace %d = seq %d id %v latency %v, want seq %d id %v latency %v",
				i, tr.Seq, tr.ID, tr.Latency, snapshot[i].Seq, snapshot[i].ID, snapshot[i].Latency)
		}
		if !reflect.DeepEqual(tr.Stages, snapshot[i].Stages) {
			t.Fatalf("retained trace %d stages = %+v, want %+v", tr.Seq, tr.Stages, snapshot[i].Stages)
		}
	}
	if rec.Finished() != 1000 {
		t.Fatalf("Finished = %d, want 1000", rec.Finished())
	}
}
