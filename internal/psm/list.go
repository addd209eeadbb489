// Package psm implements P²SM, the parallel precomputed sorted merge at the
// heart of HORSE (paper §4.1).
//
// P²SM merges a sorted linked list A (in HORSE: merge_vcpus, the paused
// sandbox's vCPUs pre-sorted by the scheduler's sort attribute) into a
// sorted linked list B (in HORSE: the reserved ull_runqueue) in O(1) time,
// independent of the length of either list. The trick is to maintain, while
// the merge is *not* happening, two auxiliary structures:
//
//   - arrayB: a positional index of B — arrayB[i] is the address of B's
//     element at position i;
//   - posA: a map from a position in B to the consecutive run of A elements
//     that belongs immediately after that position.
//
// With these precomputed, the merge itself is two pointer writes per posA
// key. The paper splices the keys on concurrent threads, one per key,
// with no mutual exclusion (each touches a disjoint set of next
// pointers); this package splices them inline, with the same result.
//
// This file provides the sorted singly-linked list both A and B are built
// from. The list uses a head sentinel so "splice before the first element"
// needs no special casing: position -1 addresses the sentinel.
package psm

// Element is a node of a sorted List. A node is either allocated by its
// List (Insert, Precomputed.AddSource) or owned by the caller and linked
// with Link, the way a kernel scheduling entity carries its own run-queue
// node; caller-owned nodes make relinking allocation-free. Elements move
// between lists during a merge, and an Element belongs to at most one
// list at a time: Link refuses a node that is already linked.
type Element[V any] struct {
	key    int64
	value  V
	next   *Element[V]
	linked bool
}

// Key returns the element's sort key. In HORSE the key is the scheduler's
// sort attribute (remaining credit under a credit2-style scheduler).
func (e *Element[V]) Key() int64 { return e.key }

// Value returns the element's payload.
func (e *Element[V]) Value() V { return e.value }

// Next returns the following element, or nil at the end of the list.
func (e *Element[V]) Next() *Element[V] { return e.next }

// Linked reports whether the element is on a list. Link sets it and
// Remove, RemoveIf, PopFront and Clear reset it; a P²SM splice moves
// elements from one list to another and leaves it set.
func (e *Element[V]) Linked() bool { return e.linked }

// List is a singly-linked list kept sorted by ascending key. Elements with
// equal keys preserve insertion order (FIFO among equals), which is the
// behaviour of a credit-sorted run queue: a newly inserted vCPU queues
// behind already-runnable vCPUs with the same credit.
//
// List is not safe for concurrent mutation.
type List[V any] struct {
	sentinel Element[V]
	length   int
}

// NewList returns an empty sorted list.
func NewList[V any]() *List[V] { return &List[V]{} }

// Len returns the number of elements.
func (l *List[V]) Len() int { return l.length }

// Front returns the first element, or nil if the list is empty.
func (l *List[V]) Front() *Element[V] { return l.sentinel.next }

// head returns the sentinel, the "element before position 0".
func (l *List[V]) head() *Element[V] { return &l.sentinel }

// Insert adds a new element with the given key and value at its sorted
// position and returns it. Cost is O(n) in the list length — this is the
// sequential sorted merge the vanilla resume path performs once per vCPU,
// and precisely the cost P²SM's merge phase avoids.
func (l *List[V]) Insert(key int64, value V) *Element[V] {
	e := &Element[V]{}
	l.Link(e, key, value)
	return e
}

// Link sets a caller-owned node's key and value and links it at its
// sorted position, at the same O(n) cost as Insert but without
// allocating. It reports false, changing nothing, if e is already on a
// list: linking it again would corrupt both lists.
func (l *List[V]) Link(e *Element[V], key int64, value V) bool {
	if e.linked {
		return false
	}
	e.key = key
	e.value = value
	l.insertElement(e)
	return true
}

// insertElement links an unlinked element (e.g. one migrating from
// another list) at its sorted position.
func (l *List[V]) insertElement(e *Element[V]) {
	prev := &l.sentinel
	for prev.next != nil && prev.next.key <= e.key {
		prev = prev.next
	}
	e.next = prev.next
	e.linked = true
	prev.next = e
	l.length++
}

// InsertPosition returns the 0-based position at which an element with the
// given key would be inserted (equivalently: the number of elements with
// key <= the given key). The predecessor of that position is the splice
// point P²SM records in posA.
func (l *List[V]) InsertPosition(key int64) int {
	pos := 0
	for e := l.sentinel.next; e != nil && e.key <= key; e = e.next {
		pos++
	}
	return pos
}

// At returns the element at 0-based position i, or nil if out of range.
func (l *List[V]) At(i int) *Element[V] {
	if i < 0 || i >= l.length {
		return nil
	}
	e := l.sentinel.next
	for ; i > 0; i-- {
		e = e.next
	}
	return e
}

// Remove unlinks e from the list. It reports whether e was found. Cost is
// O(n): the singly-linked representation requires a predecessor scan, as
// in the run-queue structures HORSE patches.
func (l *List[V]) Remove(e *Element[V]) bool {
	if !e.linked {
		return false
	}
	for prev := &l.sentinel; prev.next != nil; prev = prev.next {
		if prev.next == e {
			prev.next = e.next
			e.unlink()
			l.length--
			return true
		}
	}
	return false
}

// RemoveIf unlinks every element the predicate selects, in one pass, and
// returns how many were removed. It is the bulk counterpart of Remove
// (which costs a predecessor scan per element).
func (l *List[V]) RemoveIf(pred func(*Element[V]) bool) int {
	removed := 0
	for prev := &l.sentinel; prev.next != nil; {
		if pred(prev.next) {
			e := prev.next
			prev.next = e.next
			e.unlink()
			l.length--
			removed++
			continue
		}
		prev = prev.next
	}
	return removed
}

// PopFront unlinks and returns the first element, or nil if empty.
func (l *List[V]) PopFront() *Element[V] {
	e := l.sentinel.next
	if e == nil {
		return nil
	}
	l.sentinel.next = e.next
	e.unlink()
	l.length--
	return e
}

// Keys returns the element keys in list order.
func (l *List[V]) Keys() []int64 {
	out := make([]int64, 0, l.length)
	for e := l.sentinel.next; e != nil; e = e.next {
		out = append(out, e.key)
	}
	return out
}

// Values returns the element payloads in list order.
func (l *List[V]) Values() []V {
	out := make([]V, 0, l.length)
	for e := l.sentinel.next; e != nil; e = e.next {
		out = append(out, e.value)
	}
	return out
}

// IsSorted reports whether keys are in non-decreasing order. It always
// holds for lists mutated only through this package; tests use it to
// verify the merge preserves the invariant.
func (l *List[V]) IsSorted() bool {
	e := l.sentinel.next
	if e == nil {
		return true
	}
	for ; e.next != nil; e = e.next {
		if e.next.key < e.key {
			return false
		}
	}
	return true
}

// Clear unlinks every element. Elements still referenced elsewhere keep
// their payloads and may be linked again.
func (l *List[V]) Clear() {
	for e := l.sentinel.next; e != nil; {
		next := e.next
		e.unlink()
		e = next
	}
	l.sentinel.next = nil
	l.length = 0
}

// unlink resets the link state of an element its list no longer holds.
func (e *Element[V]) unlink() {
	e.next = nil
	e.linked = false
}

// SequentialMerge inserts every element of src into dst one by one, the
// way the vanilla resume path merges each vCPU into a run queue (paper
// §3.1 step ④). src is emptied. Cost is O(|src| · |dst|); it exists as the
// reference baseline for P²SM's O(1) merge.
func SequentialMerge[V any](dst, src *List[V]) {
	for {
		e := src.PopFront()
		if e == nil {
			return
		}
		dst.insertElement(e)
	}
}
