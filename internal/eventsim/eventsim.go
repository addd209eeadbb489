// Package eventsim implements the discrete-event simulation engine that
// drives the trace-replay experiments (paper §5.4) and the scheduler
// substrate.
//
// The engine maintains a priority queue of timestamped events over a shared
// virtual clock (package simtime). Events scheduled for the same instant
// fire in scheduling order, which keeps every simulation deterministic: the
// same inputs always produce the same interleavings and therefore the same
// measured latencies.
package eventsim

import (
	"container/heap"
	"errors"
	"fmt"

	"github.com/horse-faas/horse/internal/simtime"
)

// EventID identifies a scheduled event so it can be cancelled. IDs are
// never reused within one Engine, even though the event structs behind
// them are: a Cancel of a fired or cancelled event's ID misses, whatever
// event now occupies its recycled struct.
type EventID uint64

// Handler is the callback invoked when an event fires. now is the virtual
// instant of the event, which is also the engine clock's current reading.
type Handler func(now simtime.Time)

// ErrPastEvent is returned when an event is scheduled before the current
// virtual instant.
var ErrPastEvent = errors.New("eventsim: event scheduled in the past")

// ErrMaxEvents is the runaway guard: Run and RunUntil return an error
// matching it (with the fired and pending counts) when the event budget
// is exhausted while work is still pending.
var ErrMaxEvents = errors.New("eventsim: max events exceeded")

type event struct {
	id      EventID
	at      simtime.Time
	seq     uint64 // tiebreak: same-instant events fire in schedule order
	handler Handler
	index   int // heap index, -1 once popped or cancelled
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; handlers run on the caller's goroutine. In the sharded
// cluster run every node engine is owned by the shard draining it, so the
// whole state is marked shard-local: mutation may only happen inside
// phase-annotated code (the coordinator's own pump engine is covered by
// the same annotations — ownership is per instance).
//
//horselint:shardlocal
type Engine struct {
	clock   *simtime.Clock
	heap    eventHeap
	pending map[EventID]*event
	nextID  EventID
	nextSeq uint64
	fired   uint64 // lifetime count of events fired (Step/Run/RunUntil)
	// free holds the structs of fired and cancelled events for Schedule
	// to reuse, so a steady stream of events allocates none.
	free []*event
}

// New returns an engine over the given clock. Passing a nil clock creates
// a fresh one positioned at the epoch.
func New(clock *simtime.Clock) *Engine {
	if clock == nil {
		clock = simtime.NewClock()
	}
	return &Engine{
		clock:   clock,
		pending: make(map[EventID]*event),
	}
}

// Clock returns the engine's virtual clock.
func (e *Engine) Clock() *simtime.Clock { return e.clock }

// Now returns the current virtual instant.
func (e *Engine) Now() simtime.Time { return e.clock.Now() }

// Len returns the number of pending events.
//
//horselint:shardphase
func (e *Engine) Len() int { return len(e.heap) }

// Fired returns how many events this engine has fired over its
// lifetime, across Step, Run, and RunUntil. Run and RunUntil use it to
// account their budgets; callers can diff it around a call to attribute
// event counts to one phase of a simulation.
func (e *Engine) Fired() uint64 { return e.fired }

// Schedule registers handler to fire at the absolute instant at.
// Scheduling at the current instant is allowed (the event fires on the
// next Step); scheduling in the past returns ErrPastEvent.
//
//horselint:shardphase
func (e *Engine) Schedule(at simtime.Time, handler Handler) (EventID, error) {
	if at < e.clock.Now() {
		return 0, fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, e.clock.Now())
	}
	if handler == nil {
		return 0, errors.New("eventsim: nil handler")
	}
	e.nextID++
	e.nextSeq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev, e.free = e.free[n-1], e.free[:n-1]
	} else {
		ev = new(event)
	}
	*ev = event{id: e.nextID, at: at, seq: e.nextSeq, handler: handler}
	heap.Push(&e.heap, ev)
	e.pending[ev.id] = ev
	return ev.id, nil
}

// ScheduleAfter registers handler to fire d after the current instant.
//
//horselint:shardphase
func (e *Engine) ScheduleAfter(d simtime.Duration, handler Handler) (EventID, error) {
	if d < 0 {
		return 0, fmt.Errorf("%w: negative delay %v", ErrPastEvent, d)
	}
	return e.Schedule(e.clock.Now().Add(d), handler)
}

// Cancel removes a pending event. It reports whether the event was still
// pending (false if it already fired or was cancelled).
//
//horselint:shardphase
func (e *Engine) Cancel(id EventID) bool {
	ev, ok := e.pending[id]
	if !ok {
		return false
	}
	delete(e.pending, id)
	heap.Remove(&e.heap, ev.index)
	e.recycle(ev)
	return true
}

// recycle returns an event that left the queue to the free list. The
// handler is dropped so the struct keeps nothing it captured alive.
//
//horselint:shardphase
func (e *Engine) recycle(ev *event) {
	ev.handler = nil
	e.free = append(e.free, ev)
}

// Step fires the earliest pending event, advancing the clock to its
// instant first. It reports whether an event fired.
//
// The advance is clamped: when a handler has already driven the clock
// past the next event's instant (a node-local engine whose handlers
// charge virtual work does exactly that), the event fires at the
// current instant instead of panicking the clock backward. The handler
// still receives the event's scheduled instant as now.
//
//horselint:shardphase
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := heap.Pop(&e.heap).(*event)
	delete(e.pending, ev.id)
	if ev.at > e.clock.Now() {
		e.clock.AdvanceTo(ev.at)
	}
	e.fired++
	// The struct is recycled before the handler runs, so a handler that
	// schedules its successor reuses it.
	at, handler := ev.at, ev.handler
	e.recycle(ev)
	handler(at)
	return true
}

// Run fires events until none remain. Handlers may schedule further
// events; Run continues until the queue drains. maxEvents bounds the
// number of events fired by this call (0 means unbounded) and guards
// against runaway self-scheduling loops; exceeding it returns an error
// matching ErrMaxEvents that carries the fired and pending counts.
//
//horselint:shardphase
func (e *Engine) Run(maxEvents int) error {
	start := e.fired
	for e.Step() {
		if maxEvents > 0 && e.fired-start >= uint64(maxEvents) && e.Len() > 0 {
			return fmt.Errorf("%w: run fired %d events (cap %d) with %d still pending",
				ErrMaxEvents, e.fired-start, maxEvents, e.Len())
		}
	}
	return nil
}

// RunUntil fires events whose instant is <= deadline, then advances the
// clock to the deadline. Events beyond the deadline remain pending.
// maxEvents bounds the number of events fired by this call (0 means
// unbounded), closing the loophole where a self-scheduling chain could
// fire unbounded events inside one deadline window; exhausting the
// budget with in-window events still pending returns an error matching
// ErrMaxEvents (and leaves the clock where the last event put it).
//
//horselint:shardphase
func (e *Engine) RunUntil(deadline simtime.Time, maxEvents int) error {
	start := e.fired
	for len(e.heap) > 0 && e.heap[0].at <= deadline {
		e.Step()
		if maxEvents > 0 && e.fired-start >= uint64(maxEvents) &&
			len(e.heap) > 0 && e.heap[0].at <= deadline {
			return fmt.Errorf("%w: run-until %v fired %d events (cap %d) with %d still pending",
				ErrMaxEvents, deadline, e.fired-start, maxEvents, e.Len())
		}
	}
	if e.clock.Now() < deadline {
		e.clock.AdvanceTo(deadline)
	}
	return nil
}

// NextAt returns the instant of the earliest pending event. ok is false if
// the queue is empty.
func (e *Engine) NextAt() (at simtime.Time, ok bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].at, true
}
