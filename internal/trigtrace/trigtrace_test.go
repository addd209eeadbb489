package trigtrace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/telemetry"
)

func TestTraceIDDeterministicAndDistinct(t *testing.T) {
	a := NewTraceID(42, 7)
	if b := NewTraceID(42, 7); b != a {
		t.Fatalf("same seed+seq minted %v then %v", a, b)
	}
	if b := NewTraceID(42, 8); b == a {
		t.Fatal("adjacent seqs collided")
	}
	if b := NewTraceID(43, 7); b == a {
		t.Fatal("adjacent seeds collided")
	}
	if s := a.String(); len(s) != 16 {
		t.Fatalf("ID string %q not fixed-width hex", s)
	}
}

// TestQuantileRoundsRankHalfUp pins Quantile's rank convention: n·q
// rounded half up, clamped into the slice — not the ceil nearest-rank
// of metrics.Series.Percentile, which would pick the 10th sample at
// n=10, q=0.91.
func TestQuantileRoundsRankHalfUp(t *testing.T) {
	sorted := make([]simtime.Duration, 10)
	for i := range sorted {
		sorted[i] = simtime.Duration(i + 1)
	}
	for _, tc := range []struct {
		q    float64
		want simtime.Duration
	}{{0, 1}, {0.04, 1}, {0.05, 1}, {0.5, 5}, {0.91, 9}, {0.95, 10}, {0.99, 10}, {1, 10}} {
		if got := Quantile(sorted, tc.q); got != tc.want {
			t.Errorf("Quantile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := Quantile(sorted[:1], 0.99); got != 1 {
		t.Errorf("Quantile of one sample = %v, want 1", got)
	}
}

func TestStageClassPartition(t *testing.T) {
	want := map[Stage]Class{
		StageQueueWait:     ClassServing,
		StagePlacement:     ClassServing,
		StagePoolTake:      ClassServing,
		StageDispatch:      ClassServing,
		StageResume:        ClassServing,
		StageColdInit:      ClassServing,
		StageRestore:       ClassServing,
		StageInvoke:        ClassServing,
		StageReroute:       ClassOverhead,
		StageRetryBackoff:  ClassOverhead,
		StageFailedAttempt: ClassOverhead,
		StageRepool:        ClassPost,
	}
	stages := Stages()
	if len(stages) != len(want) {
		t.Fatalf("Stages() lists %d stages, want %d", len(stages), len(want))
	}
	for _, s := range stages {
		cls, ok := want[s]
		if !ok {
			t.Fatalf("Stages() lists unknown stage %q", s)
		}
		if got := StageClass(s); got != cls {
			t.Fatalf("StageClass(%q) = %q, want %q", s, got, cls)
		}
	}
}

func TestInertContextIsSafe(t *testing.T) {
	var c Context
	if c.Active() {
		t.Fatal("zero Context reports active")
	}
	if c.ID() != 0 || c.IDString() != "" {
		t.Fatal("zero Context has an ID")
	}
	c.Record(StageInvoke, 0, 10)
	c.RecordOn(StageResume, 0, 5, "n0", "horse", "")
	c.Reroute(0, "n1", "node-failed")
	c.CollapseFailed(c.Mark(), 0, 3, "n1", "warm", "resume")
	c.Complete(Outcome{Served: "warm", Latency: 10})

	var r *Recorder
	if got := r.Start(0, "fn", "horse", 0, 0); got.Active() {
		t.Fatal("nil Recorder minted an active Context")
	}
	if r.Finished() != 0 || r.Violations() != 0 || r.ReconcileFailures() != 0 {
		t.Fatal("nil Recorder reported non-zero counters")
	}
	if r.Traces() != nil || r.Attribution() != nil || r.Flight() != nil {
		t.Fatal("nil Recorder returned non-nil contents")
	}
	disabled := NewRecorder(RecorderOptions{Disabled: true})
	if got := disabled.Start(0, "fn", "horse", 0, 0); got.Active() {
		t.Fatal("disabled Recorder minted an active Context")
	}
}

func TestRecorderFinishAggregates(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := NewRecorder(RecorderOptions{Seed: 7, WorstK: 16, Metrics: reg})

	// Trigger 0: clean horse-path serve inside budget.
	tc := rec.Start(0, "echo", "horse", 0, 1000)
	tc.Record(StageQueueWait, 0, 100)
	tc.RecordOn(StagePoolTake, 100, 0, "n0", "horse", "")
	tc.RecordOn(StageResume, 100, 200, "n0", "horse", "")
	tc.RecordOn(StageInvoke, 300, 300, "n0", "horse", "")
	tc.RecordOn(StageRepool, 600, 50, "n0", "horse", "")
	tc.Complete(Outcome{Served: "horse", Node: "n0", Latency: 600})

	// Trigger 1: a failed warm attempt collapsed, then served cold over
	// budget — an SLO violation with overhead.
	tc = rec.Start(1, "echo", "warm", 1000, 1000)
	mark := tc.Mark()
	tc.RecordOn(StagePoolTake, 1000, 0, "n0", "warm", "")
	tc.RecordOn(StageResume, 1000, 150, "n0", "warm", "")
	tc.CollapseFailed(mark, 1000, 150, "n0", "warm", "resume")
	tc.Record(StageRetryBackoff, 1150, 50)
	tc.RecordOn(StageColdInit, 1200, 900, "n0", "cold", "")
	tc.RecordOn(StageInvoke, 2100, 300, "n0", "cold", "")
	tc.Complete(Outcome{Served: "cold", Node: "n0", Latency: 1200})

	// Trigger 2: terminal failure after a reroute.
	tc = rec.Start(2, "echo", "horse", 3000, 1000)
	tc.Reroute(3000, "n1", "node-failed")
	tc.RecordOn(StageFailedAttempt, 3000, 80, "n0", "horse", "trigger-failed")
	tc.Complete(Outcome{Err: "cluster: trigger failed", Latency: 0})

	if got := rec.Finished(); got != 3 {
		t.Fatalf("Finished = %d, want 3", got)
	}
	if got := rec.Violations(); got != 2 {
		t.Fatalf("Violations = %d, want 2 (over budget + terminal error)", got)
	}
	if got := rec.ReconcileFailures(); got != 0 {
		t.Fatalf("ReconcileFailures = %d, want 0", got)
	}

	traces := rec.Traces()
	if len(traces) != 3 {
		t.Fatalf("Traces retained %d, want 3 (WorstK covers all)", len(traces))
	}
	for i, tr := range traces {
		if tr.Seq != uint64(i) {
			t.Fatalf("Traces()[%d].Seq = %d, want %d (sorted by seq)", i, tr.Seq, i)
		}
	}
	if tr := traces[0]; tr.Violated || tr.EndToEnd != 600 {
		t.Fatalf("trigger 0: violated=%v endToEnd=%d, want clean 600", tr.Violated, tr.EndToEnd)
	}
	if tr := traces[1]; !tr.Violated || tr.EndToEnd != 1200+150+50 {
		t.Fatalf("trigger 1: violated=%v endToEnd=%d, want violation with 1400", tr.Violated, tr.EndToEnd)
	}
	if tr := traces[2]; !tr.Violated || tr.Failovers != 1 || tr.Err == "" {
		t.Fatalf("trigger 2: violated=%v failovers=%d err=%q", tr.Violated, tr.Failovers, tr.Err)
	}

	rows := rec.Attribution()
	if len(rows) == 0 {
		t.Fatal("empty attribution table")
	}
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		if a.Mode > b.Mode || (a.Mode == b.Mode && a.Stage >= b.Stage) {
			t.Fatalf("attribution rows unsorted at %d: %+v then %+v", i, a, b)
		}
	}
	// Per mode, serving-class totals reconcile with that mode's summed
	// latency — the invariant the whole taxonomy exists to guarantee.
	servingByMode := map[string]simtime.Duration{}
	for _, row := range rows {
		if row.Class == ClassServing {
			servingByMode[row.Mode] += row.Total
		}
	}
	// Trigger 2 recorded only overhead stages (its latency is 0), so the
	// "error" mode contributes no serving rows.
	wantLatency := map[string]simtime.Duration{"horse": 600, "cold": 1200}
	if !reflect.DeepEqual(servingByMode, wantLatency) {
		t.Fatalf("serving totals by mode = %v, want %v", servingByMode, wantLatency)
	}

	if got := reg.Counter("trigtrace_traces_total").Value(); got != 3 {
		t.Fatalf("trigtrace_traces_total = %d, want 3", got)
	}
	if got := reg.Counter("trigtrace_slo_violations_total").Value(); got != 2 {
		t.Fatalf("trigtrace_slo_violations_total = %d, want 2", got)
	}
	viol := reg.Counter("trigtrace_retained_total", "reason", "slo-violation").Value()
	worst := reg.Counter("trigtrace_retained_total", "reason", "worst-k").Value()
	if viol != 2 || worst != 1 {
		t.Fatalf("retained = %d violations + %d worst-k, want 2 + 1", viol, worst)
	}
}

func TestCollapseFailedReplacesPartialStages(t *testing.T) {
	rec := NewRecorder(RecorderOptions{WorstK: 4})
	tc := rec.Start(0, "fn", "warm", 0, 0)
	tc.Record(StageQueueWait, 0, 10)
	mark := tc.Mark()
	tc.RecordOn(StagePoolTake, 10, 0, "n0", "warm", "")
	tc.RecordOn(StageResume, 10, 30, "n0", "warm", "")
	tc.CollapseFailed(mark, 10, 30, "n0", "warm", "resume")
	tc.RecordOn(StageResume, 40, 25, "n0", "horse", "")
	tc.Complete(Outcome{Served: "horse", Node: "n0", Latency: 35})

	tr := rec.Traces()[0]
	wantStages := []Stage{StageQueueWait, StageFailedAttempt, StageResume}
	if len(tr.Stages) != len(wantStages) {
		t.Fatalf("stage count = %d, want %d: %+v", len(tr.Stages), len(wantStages), tr.Stages)
	}
	for i, s := range tr.Stages {
		if s.Stage != wantStages[i] {
			t.Fatalf("stage[%d] = %q, want %q", i, s.Stage, wantStages[i])
		}
	}
	if fa := tr.Stages[1]; fa.Detail != "resume" || fa.Dur != 30 {
		t.Fatalf("failed-attempt span = %+v, want site resume, dur 30", fa)
	}
	if tr.ServingTotal() != 35 || tr.OverheadTotal() != 30 {
		t.Fatalf("serving/overhead = %d/%d, want 35/30", tr.ServingTotal(), tr.OverheadTotal())
	}
}

func TestFlightRetentionKeepsViolatorsAndWorst(t *testing.T) {
	rec := NewRecorder(RecorderOptions{Capacity: 4, WorstK: 2})
	for seq := uint64(0); seq < 32; seq++ {
		tc := rec.Start(seq, "fn", "horse", 0, 100)
		lat := simtime.Duration(10 + seq)
		if seq%8 == 0 {
			lat = 200 + simtime.Duration(seq) // violator
		}
		tc.Record(StageInvoke, 0, lat)
		tc.Complete(Outcome{Served: "horse", Node: "n0", Latency: lat})
	}
	traces := rec.Traces()
	// Violators: seqs 0, 8, 16, 24 (all fit the must-keep ring). Worst-2
	// by end-to-end: seqs 24 (224) and 16 (216) — already retained — so
	// the merged set is exactly the four violators.
	var seqs []uint64
	for _, tr := range traces {
		seqs = append(seqs, tr.Seq)
		if !tr.Violated {
			t.Fatalf("retained trace %d is not a violator: %+v", tr.Seq, tr)
		}
	}
	if want := []uint64{0, 8, 16, 24}; !reflect.DeepEqual(seqs, want) {
		t.Fatalf("retained seqs = %v, want %v", seqs, want)
	}
	if got := rec.Flight().Evicted(); got != 0 {
		t.Fatalf("ring evicted %d, want 0", got)
	}
}

func TestWritePerfettoDeterministicAndLinked(t *testing.T) {
	build := func() []*TriggerTrace {
		rec := NewRecorder(RecorderOptions{Seed: 99, WorstK: 8})
		tc := rec.Start(0, "echo", "horse", 0, 50)
		tc.Record(StageQueueWait, 0, 10)
		tc.RecordOn(StageResume, 10, 20, "n0", "horse", "")
		tc.RecordOn(StageInvoke, 30, 40, "n0", "horse", "")
		tc.Complete(Outcome{Served: "horse", Node: "n0", Latency: 70})
		tc = rec.Start(1, "echo", "warm", 100, 50)
		tc.Reroute(100, "n1", "node-failed")
		tc.RecordOn(StageInvoke, 100, 30, "n0", "warm", "")
		tc.Complete(Outcome{Served: "warm", Node: "n0", Latency: 30})
		return rec.Traces()
	}

	var a, b bytes.Buffer
	if err := WritePerfetto(&a, build()); err != nil {
		t.Fatal(err)
	}
	if err := WritePerfetto(&b, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same traces produced different Perfetto bytes")
	}

	// Input order must not matter: the exporter sorts by seq.
	traces := build()
	var c bytes.Buffer
	if err := WritePerfetto(&c, []*TriggerTrace{traces[1], traces[0]}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("reversed input order changed Perfetto bytes")
	}

	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			ID   string            `json:"id"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	id0 := NewTraceID(99, 0).String()
	flowPh := map[string]int{}
	tids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		tids[ev.Tid] = true
		if ev.Name == "trigger-flow" && ev.ID == id0 {
			flowPh[ev.Ph]++
		}
	}
	if len(tids) != 2 {
		t.Fatalf("events span %d tracks, want one per trigger (2)", len(tids))
	}
	// Trigger 0 has 3 stages: flow start, step, finish.
	if flowPh["s"] != 1 || flowPh["t"] != 1 || flowPh["f"] != 1 {
		t.Fatalf("flow chain for %s = %v, want one each of s/t/f", id0, flowPh)
	}
	if !strings.Contains(a.String(), `"trace_id": "`+id0+`"`) {
		t.Fatal("stage slices are missing trace_id annotations")
	}
}
